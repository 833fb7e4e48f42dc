package feam

import (
	"context"
	"sort"
	"strings"
	"sync"

	"feam/internal/elfimg"
	"feam/internal/envmgmt"
	"feam/internal/libver"
	"feam/internal/obs"
	"feam/internal/sitemodel"
	"feam/internal/vfs"
)

// The sharded survey index.
//
// The EDC's filesystem searches — locate-style scans for the C library and
// MPI shared objects — used to walk the whole site filesystem on every
// uncached survey. Discovery only ever cares about a handful of roots: the
// loader's default library directories, LD_LIBRARY_PATH entries, and the
// installation prefixes under /opt. Each such root is one survey shard: a
// walk of that subtree recording every survey-relevant shared object (with
// its glibc banner/API version and any MPI stack it reveals, parsed at walk
// time), kept as a shardKind value under the subtree's vfs tree stamp. A
// C-library upgrade bumps only the system library directory's stamp, so the
// next survey re-walks exactly that shard and reuses the rest.

// shardLib is one survey-relevant shared object found in a shard walk.
type shardLib struct {
	Path string `json:"path"`
	Name string `json:"name"`
	// Glibc and GlibcSource carry the C-library version determined at walk
	// time — from the library's execution banner ("exec-banner") or its
	// version-definition table ("api") — so a cached shard answers the
	// glibc question without touching the filesystem.
	Glibc       string `json:"glibc,omitempty"`
	GlibcSource string `json:"glibc_source,omitempty"`
}

// shardRecord is the cached result of walking one shard root.
type shardRecord struct {
	Libs []shardLib `json:"libs,omitempty"`
	// Stacks are the MPI installations whose prefix lies under this root,
	// parsed from the path naming scheme and the wrapper banner (both of
	// which live under the same prefix, so the stamp covers them).
	Stacks []StackInfo `json:"stacks,omitempty"`
}

// surveyRelevant mirrors the EDC's search patterns: the C library by exact
// name, MPI implementation libraries by prefix.
func surveyRelevant(name string) bool {
	return name == "libc.so.6" ||
		strings.HasPrefix(name, "libmpi.so") ||
		strings.HasPrefix(name, "libmpich.so")
}

// shardRoots returns the sorted discovery roots for a site: default
// library directories, LD_LIBRARY_PATH entries, and each installation
// prefix under /opt. Every root is one independently cached shard. Roots
// depend only on the environment, the directory layout and ld.so.conf
// content — never on extended attributes — so the list is kept under
// contentStamp and survives attribute churn.
func shardRoots(site *sitemodel.Site) []string {
	seen := map[string]bool{}
	var roots []string
	add := func(dir string) {
		if dir == "" || dir == "/" || seen[dir] || !site.FS().IsDir(dir) {
			return
		}
		seen[dir] = true
		roots = append(roots, dir)
	}
	for _, d := range site.DefaultLibDirs() {
		add(d)
	}
	for _, d := range envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH")) {
		add(d)
	}
	if entries, err := site.FS().ReadDir("/opt"); err == nil {
		for _, ent := range entries {
			add("/opt/" + ent.Name)
		}
	}
	sort.Strings(roots)
	return roots
}

// underRoot reports whether p lies in the subtree rooted at root.
func underRoot(root, p string) bool {
	return p == root || strings.HasPrefix(p, root+"/")
}

// walkShard traverses one shard root with Walk and finishes the record.
// It is the fallback for shards whose tree stamp was served from the memo
// (so no stamp traversal ran) but whose record was in neither the registry
// nor the store — a fresh engine over a warmed filesystem.
func walkShard(site *sitemodel.Site, root string, parser *elfimg.Parser) (*shardRecord, error) {
	var libs []shardLib
	err := site.FS().Walk(root, func(p string, info vfs.FileInfo) error {
		if info.Kind == vfs.KindDir || !surveyRelevant(info.Name) {
			return nil
		}
		libs = append(libs, shardLib{Path: p, Name: info.Name})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finishShardRecord(site, root, libs, parser), nil
}

// finishShardRecord turns the survey-relevant entries found under a root
// into a complete shard record: C-library images are resolved to a version
// in place (banner first, then the version-definition table through the
// zero-copy View on the caller's reusable parser), and MPI installation
// prefixes under the root are parsed into stack records — so the merge
// phase of a survey never touches the filesystem for cached shards.
func finishShardRecord(site *sitemodel.Site, root string, libs []shardLib, parser *elfimg.Parser) *shardRecord {
	rec := &shardRecord{Libs: libs}
	for i := range rec.Libs {
		if rec.Libs[i].Name == "libc.so.6" {
			recordGlibc(site, rec.Libs[i].Path, &rec.Libs[i], parser)
		}
	}
	// MPI libraries under /opt reveal installation prefixes via the path
	// naming scheme; only prefixes inside this root belong to this shard
	// (the /opt/<key> shard covers a nested LD_LIBRARY_PATH root's libs).
	var prefixes map[string]bool
	for _, lib := range rec.Libs {
		if lib.Name == "libc.so.6" || !strings.HasPrefix(lib.Path, "/opt/") {
			continue
		}
		if i := strings.Index(lib.Path, "/lib/"); i > 0 {
			if prefix := lib.Path[:i]; underRoot(root, prefix) {
				if prefixes == nil {
					prefixes = map[string]bool{}
				}
				prefixes[prefix] = true
			}
		}
	}
	if len(prefixes) == 0 {
		return rec
	}
	keys := make([]string, 0, len(prefixes))
	for p := range prefixes {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, prefix := range keys {
		base := prefix[strings.LastIndexByte(prefix, '/')+1:]
		if info, ok := stackFromKey(site, base, "path-search"); ok {
			info.Prefix = prefix
			rec.Stacks = append(rec.Stacks, info)
		}
	}
	return rec
}

// recordGlibc resolves one C-library image to a version the way the EDC
// does: execute-and-parse the banner, fall back to the API's version
// definitions. An unresolvable library records an empty source.
func recordGlibc(site *sitemodel.Site, p string, lib *shardLib, parser *elfimg.Parser) {
	if banner, ok := site.FS().Attr(p, sitemodel.AttrExecOutput); ok {
		if v, ok := parseGlibcBanner(banner); ok {
			lib.Glibc, lib.GlibcSource = v.String(), "exec-banner"
			return
		}
	}
	if data, err := site.FS().ReadFileShared(p); err == nil {
		if v, err := parser.Parse(data); err == nil {
			if s := highestGlibcFromView(v); s != "" {
				lib.Glibc, lib.GlibcSource = s, "api"
			}
		}
	}
}

// highestGlibcFromView scans a View's version definitions for the highest
// GLIBC_* release without materializing the image.
func highestGlibcFromView(v *elfimg.View) string {
	var best libver.Version
	v.VerDefs(func(ver []byte) bool {
		s := string(ver)
		if !strings.HasPrefix(s, "GLIBC_") {
			return true
		}
		if parsed, err := libver.ParseVersion(strings.TrimPrefix(s, "GLIBC_")); err == nil {
			if best.IsZero() || parsed.Compare(best) > 0 {
				best = parsed
			}
		}
		return true
	})
	if best.IsZero() {
		return ""
	}
	return best.String()
}

// surveyShards resolves every shard for a site. The serial phase stamps
// each root — a stamp recompute doubles as the shard traversal via
// TreeStampVisit, so a mutated shard is walked exactly once — and fetches
// the shard's kept record. Shards that still need work (version parsing
// for freshly traversed shards, a full walk for memo-hit stamps with no
// kept record) fan out across a bounded worker pool, each worker reusing
// one zero-copy ELF parser, and are kept once the pool is done. Each shard
// rebuild is traced as an OpShardWalk span. Records come back in root
// order; nil entries mark shards that were unreadable (vanished
// mid-survey or failing under fault injection), and discovery proceeds
// without them — matching the old glob searches that ignored
// per-directory errors.
func (e *Engine) surveyShards(ctx context.Context, site *sitemodel.Site) ([]*shardRecord, error) {
	roots, _ := deriveCached(e, rootsKind, site, "", contentStamp(site), func() ([]string, error) {
		return shardRoots(site), nil
	})
	recs := make([]*shardRecord, len(roots))
	stamps := make([]uint64, len(roots))
	libs := make([][]shardLib, len(roots))
	traversed := make([]bool, len(roots))
	var pending []int
	for i, root := range roots {
		var collected []shardLib
		stamp, visited, err := site.FS().TreeStampVisit(root,
			func(dir, name string, info vfs.FileInfo) {
				if info.Kind == vfs.KindDir || !surveyRelevant(name) {
					return
				}
				collected = append(collected, shardLib{Path: dir + "/" + name, Name: name})
			})
		if err != nil {
			continue
		}
		stamps[i] = stamp
		if rec, source := fetchDerived(e, shardKind, site, root, stamp); source != "" {
			recs[i] = rec
			continue
		}
		libs[i], traversed[i] = collected, visited
		pending = append(pending, i)
	}
	if len(pending) == 0 || ctx.Err() != nil {
		return recs, ctx.Err()
	}
	parent := obs.SpanFromContext(ctx)
	buildOne := func(i int, parser *elfimg.Parser) {
		sp := e.tracer.Start(obs.OpShardWalk,
			obs.WithParent(parent), obs.WithSite(site.Name))
		sp.SetAttr(obs.AttrDir, roots[i])
		var err error
		if traversed[i] {
			recs[i] = finishShardRecord(site, roots[i], libs[i], parser)
		} else {
			recs[i], err = walkShard(site, roots[i], parser)
		}
		sp.End(err)
	}
	if workers := min(e.workers, len(pending)); workers <= 1 {
		var parser elfimg.Parser
		for _, i := range pending {
			if ctx.Err() != nil {
				break
			}
			buildOne(i, &parser)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var parser elfimg.Parser
				for i := range idx {
					if ctx.Err() != nil {
						continue
					}
					buildOne(i, &parser)
				}
			}()
		}
		for _, i := range pending {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, i := range pending {
		if recs[i] != nil {
			keepDerived(e, shardKind, site, roots[i], stamps[i], recs[i])
		}
	}
	return recs, ctx.Err()
}

// findShardLib returns the lexicographically first record of a library
// name across all shards (the order the old whole-filesystem locate search
// produced within these roots).
func findShardLib(shards []*shardRecord, name string) (shardLib, bool) {
	var best shardLib
	found := false
	for _, rec := range shards {
		if rec == nil {
			continue
		}
		for _, lib := range rec.Libs {
			if lib.Name != name {
				continue
			}
			if !found || lib.Path < best.Path {
				best, found = lib, true
			}
		}
	}
	return best, found
}

// scanMpiccDirs returns the PATH directories containing an mpicc wrapper,
// in PATH order. Wrapper existence depends on PATH and the namespace,
// never on attributes, so the list is kept under contentStamp like the
// roots.
func scanMpiccDirs(site *sitemodel.Site) []string {
	var dirs []string
	for _, dir := range envmgmt.SplitPathVar(site.Getenv("PATH")) {
		if site.FS().Exists(dir + "/mpicc") {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}
