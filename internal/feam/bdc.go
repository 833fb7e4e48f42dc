package feam

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"feam/internal/elfimg"
	"feam/internal/envmgmt"
	"feam/internal/ldso"
	"feam/internal/libver"
	"feam/internal/mpistack"
	"feam/internal/sitemodel"
)

// BinaryDescription is the Binary Description Component's output — the
// information Figure 3 lists.
type BinaryDescription struct {
	// Name is the binary's identifier (file name or supplied label).
	Name string
	// ContentHash is the hex SHA-256 of the described image. It keys the
	// engine's description cache and makes derived staging directories
	// collision-free.
	ContentHash string
	// Format is the objdump-style file format ("elf64-x86-64").
	Format string
	ISA    elfimg.Machine
	Bits   int
	Type   elfimg.FileType

	// Soname and LibVersion are set when the binary is itself a shared
	// library (the recursive resolution path).
	Soname     string
	LibVersion libver.Version

	// Needed lists the DT_NEEDED dependencies in link order.
	Needed []string
	// RequiredGlibc is the highest GLIBC_* version the binary references —
	// the application's "required C library version" (§III.C).
	RequiredGlibc libver.Version
	// VerNeeds preserves the full version-reference table.
	VerNeeds []elfimg.VerNeed

	// MPIImpl is the identified MPI implementation key ("", "openmpi",
	// "mpich2", "mvapich2") per the Table I scheme.
	MPIImpl string

	// BuildComment, BuildOS, and BuildGlibc come from the optional
	// .comment section when present: the compiler/linker provenance and
	// the OS/C library the binary was created with.
	BuildComment string
	BuildOS      string
	BuildGlibc   libver.Version
}

// IsSharedLibrary reports whether the described object is a library.
func (d *BinaryDescription) IsSharedLibrary() bool {
	return d.Type == elfimg.TypeDyn && d.Soname != ""
}

// UsesMPI reports whether an MPI implementation was identified.
func (d *BinaryDescription) UsesMPI() bool { return d.MPIImpl != "" }

// describeBytes is the BDC's uncached description process on a raw binary
// image (the objdump -p / readelf -p .comment equivalent); hash is the
// image's precomputed content hash.
func describeBytes(data []byte, name, hash string) (*BinaryDescription, error) {
	f, err := elfimg.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w: cannot describe %s: %w", ErrBadBinary, name, err)
	}
	desc := &BinaryDescription{
		Name:          name,
		ContentHash:   hash,
		Format:        f.Format(),
		ISA:           f.Machine,
		Bits:          f.Class.Bits(),
		Type:          f.Type,
		Soname:        f.Soname,
		Needed:        append([]string(nil), f.Needed...),
		VerNeeds:      append([]elfimg.VerNeed(nil), f.VerNeeds...),
		RequiredGlibc: libver.HighestGlibc(f.VersionRefNames()),
	}
	if f.Soname != "" {
		if sn, err := libver.ParseSoname(f.Soname); err == nil {
			desc.LibVersion = sn.Version
		}
	}
	if impl, ok := mpistack.Identify(f.Needed); ok {
		desc.MPIImpl = impl.Key()
	}
	parseComments(desc, f.Comments)
	return desc, nil
}

// parseComments extracts build provenance from .comment strings such as
// "GCC: (GNU) 4.1.2" and "built on CentOS 5.6 (glibc 2.5)".
func parseComments(desc *BinaryDescription, comments []string) {
	for _, c := range comments {
		switch {
		case strings.HasPrefix(c, "GCC:") || strings.HasPrefix(c, "Intel(R)") || strings.HasPrefix(c, "PGI"):
			if desc.BuildComment == "" {
				desc.BuildComment = c
			}
		case strings.HasPrefix(c, "built on "):
			rest := strings.TrimPrefix(c, "built on ")
			if i := strings.Index(rest, " (glibc "); i >= 0 {
				desc.BuildOS = rest[:i]
				verStr := strings.TrimSuffix(rest[i+len(" (glibc "):], ")")
				if v, err := libver.ParseVersion(verStr); err == nil {
					desc.BuildGlibc = v
				}
			} else {
				desc.BuildOS = rest
			}
		}
	}
}

// LibraryCopy is one shared library gathered at a guaranteed execution
// environment for use by the resolution model.
type LibraryCopy struct {
	// Name is the DT_NEEDED name the copy satisfies.
	Name string
	// OriginPath is where the copy was found at the source site.
	OriginPath string
	// Data is the library image. It aliases the source site's stored
	// blob, which other sites of its fleet may hold too (stored bytes
	// never change in place, and staging's WriteFile copies), so it is
	// read-only.
	Data []byte
	// Attrs preserves the file's extended attributes so a staged copy is
	// byte-for-byte (and metadata-for-metadata) identical to the original.
	Attrs map[string]string
	// Desc is the BDC description of the copy (the recursive description
	// process of §V.A).
	Desc *BinaryDescription
}

// GatherResult is the source-phase library collection outcome.
type GatherResult struct {
	Copies []*LibraryCopy
	// NotFound lists dependencies that could not be located even with the
	// fallback searches.
	NotFound []string
	// SearchFallbacks counts dependencies that needed the locate/find
	// fallbacks because the ldd path missed them.
	SearchFallbacks int
}

// GatherLibraries locates and copies every shared library the binary is
// linked against at a guaranteed execution environment, excluding the C
// library and the dynamic loader (§IV: resolution copies everything except
// libc). The primary mechanism is the ldd equivalent (dynamic-loader
// resolution under the site's current environment); libraries the loader
// cannot place are hunted with the locate/find-style filesystem searches.
// Each copy is described through the engine's memoized BDC under ctx (the
// recursive description process of §V.A).
func (e *Engine) GatherLibraries(ctx context.Context, site *sitemodel.Site, binary []byte, name string) (*GatherResult, error) {
	res := &GatherResult{}
	resolution, err := ldso.ResolveBytes(binary, name, ldso.Options{
		FS:          site.FS(),
		LibraryPath: envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH")),
		DefaultDirs: site.DefaultLibDirs(),
	})
	if err != nil {
		return nil, fmt.Errorf("%w: gathering libraries for %s: %w", ErrBadBinary, name, err)
	}
	located := map[string]string{}
	for _, dep := range resolution.Order {
		located[dep] = resolution.Objects[dep].Path
	}
	// Fallback searches for anything the loader missed.
	for _, m := range resolution.Missing {
		if p, ok := searchLibrary(site, m.Name); ok {
			located[m.Name] = p
			res.SearchFallbacks++
		} else {
			res.NotFound = append(res.NotFound, m.Name)
		}
	}
	names := make([]string, 0, len(located))
	for n := range located {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, dep := range names {
		if libver.IsCLibraryName(dep) || libver.IsDynamicLoaderName(dep) {
			continue
		}
		p := located[dep]
		data, err := site.FS().ReadFileShared(p)
		if err != nil {
			res.NotFound = append(res.NotFound, dep)
			continue
		}
		desc, err := e.Describe(ctx, data, dep)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			res.NotFound = append(res.NotFound, dep)
			continue
		}
		res.Copies = append(res.Copies, &LibraryCopy{
			Name: dep, OriginPath: p, Data: data,
			Attrs: site.FS().Attrs(p), Desc: desc,
		})
	}
	sort.Strings(res.NotFound)
	return res, nil
}

// searchLibrary applies the BDC's fallback search methods: a locate-style
// whole-filesystem name search, then a find over the common library
// locations and LD_LIBRARY_PATH.
func searchLibrary(site *sitemodel.Site, name string) (string, bool) {
	// locate: exact-name matches anywhere.
	if hits, err := site.FS().Glob("/", name); err == nil && len(hits) > 0 {
		return hits[0], true
	}
	// find: common locations plus the environment's library path.
	dirs := append(site.DefaultLibDirs(), envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH"))...)
	dirs = append(dirs, "/opt")
	for _, dir := range dirs {
		if !site.FS().IsDir(dir) {
			continue
		}
		if hits, err := site.FS().Glob(dir, name); err == nil && len(hits) > 0 {
			return hits[0], true
		}
	}
	return "", false
}
