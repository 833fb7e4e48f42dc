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
	"feam/internal/sitemodel"
)

// StackInfo is one MPI stack the EDC discovered at a site. Everything here
// is learned from the discovery surface (module keys, path names, wrapper
// banners) — never from the site's ground-truth registry.
type StackInfo struct {
	// Key is the canonical name, e.g. "openmpi-1.4-intel".
	Key string
	// Impl is the implementation key ("openmpi", "mpich2", "mvapich2").
	Impl string
	// ImplVersion is the release parsed from the key/path.
	ImplVersion string
	// CompilerFamily/CompilerVersion come from the key and the wrapper's
	// version banner.
	CompilerFamily  string
	CompilerVersion string
	// Prefix is the installation root.
	Prefix string
	// DiscoveredVia records the mechanism: "modules", "softenv", or
	// "path-search".
	DiscoveredVia string
}

// EnvironmentDescription is the EDC's output — the information Figure 4
// lists.
type EnvironmentDescription struct {
	SiteName string

	// ISA and Bits describe the hardware architecture (uname -p).
	ISA  elfimg.Machine
	Bits int
	// UnameProcessor is the raw processor string.
	UnameProcessor string

	// OSType/OSVersion come from /proc/version; Distro from /etc/*release.
	OSType    string
	OSVersion string
	Distro    string

	// Glibc is the C library version; GlibcSource records how it was
	// learned ("exec-banner" by running the C library, "api" from the
	// library's version definitions).
	Glibc       libver.Version
	GlibcSource string

	// EnvTool names the user-environment management tool found ("modules",
	// "softenv", or "" when none).
	EnvTool string
	// Available lists every discovered MPI stack.
	Available []StackInfo
	// Loaded is the currently selected stack, when one is active.
	Loaded *StackInfo
}

// FindStacks returns the available stacks using the given implementation.
func (e *EnvironmentDescription) FindStacks(impl string) []StackInfo {
	var out []StackInfo
	for _, s := range e.Available {
		if s.Impl == impl {
			out = append(out, s)
		}
	}
	return out
}

// surveySite is the uncached survey: the system surface first (a failure
// there means the site is unreachable), then the sharded filesystem index,
// then the glibc and MPI-stack determinations merged out of it. The
// system surface is kept until /proc or /etc changes; a site whose stamps
// cannot be read (fault injection, outages) takes the live path, so its
// failures surface as they happen.
func (e *Engine) surveySite(ctx context.Context, site *sitemodel.Site) (*EnvironmentDescription, error) {
	var sys *sysRecord
	var err error
	if stamp, ok := systemStamp(site); ok {
		sys, err = deriveCached(e, systemKind, site, "", stamp, func() (*sysRecord, error) {
			return discoverSystem(site)
		})
	} else {
		sys, err = discoverSystem(site)
	}
	if err != nil {
		return nil, err
	}
	env := &EnvironmentDescription{
		SiteName:       site.Name,
		UnameProcessor: sys.UnameProcessor, ISA: sys.ISA, Bits: sys.Bits,
		OSType: sys.OSType, OSVersion: sys.OSVersion, Distro: sys.Distro,
	}
	shards, err := e.surveyShards(ctx, site)
	if err != nil {
		return nil, err
	}
	discoverGlibc(site, env, shards)
	e.discoverStacks(site, env, shards)
	return env, nil
}

// sysRecord is the parsed system surface: uname, /proc/version and
// /etc/*release.
type sysRecord struct {
	UnameProcessor string
	ISA            elfimg.Machine
	Bits           int
	OSType         string
	OSVersion      string
	Distro         string
}

// discoverSystem reads the uname surface, /proc/version and /etc/*release.
func discoverSystem(site *sitemodel.Site) (*sysRecord, error) {
	raw, err := site.FS().ReadFile("/proc/sys/kernel/uname")
	if err != nil {
		return nil, fmt.Errorf("%w: uname unavailable: %w", ErrSiteUnavailable, err)
	}
	sys := &sysRecord{}
	fields := strings.Fields(string(raw))
	if len(fields) > 0 {
		sys.UnameProcessor = fields[0]
	}
	switch sys.UnameProcessor {
	case "x86_64":
		sys.ISA, sys.Bits = elfimg.EMX8664, 64
	case "i686", "i586", "i386":
		sys.ISA, sys.Bits = elfimg.EM386, 32
	case "ppc64":
		sys.ISA, sys.Bits = elfimg.EMPPC64, 64
	case "ppc":
		sys.ISA, sys.Bits = elfimg.EMPPC, 32
	default:
		return nil, fmt.Errorf("%w: unrecognized processor %q", ErrSiteUnavailable, sys.UnameProcessor)
	}
	if data, err := site.FS().ReadFile("/proc/version"); err == nil {
		f := strings.Fields(string(data))
		if len(f) >= 3 && f[0] == "Linux" && f[1] == "version" {
			sys.OSType = "Linux"
			sys.OSVersion = f[2]
		}
	}
	// Confirm distribution from /etc/*release files.
	for _, rel := range []string{"/etc/redhat-release", "/etc/centos-release", "/etc/SuSE-release", "/etc/lsb-release"} {
		if data, err := site.FS().ReadFile(rel); err == nil {
			sys.Distro = strings.TrimSpace(strings.Split(string(data), "\n")[0])
			break
		}
	}
	return sys, nil
}

// discoverGlibc determines the C library version: first by "executing" the
// C library binary and parsing its banner, then by falling back to the
// library's own version-definition table (the C library API path). The
// library is located through the shard index; a whole-filesystem search
// remains as the last resort for a C library living outside every
// discovery root.
func discoverGlibc(site *sitemodel.Site, env *EnvironmentDescription, shards []*shardRecord) {
	if lib, ok := findShardLib(shards, "libc.so.6"); ok {
		// The version was resolved at walk time (banner, then version
		// definitions); an empty source means neither technique worked.
		if lib.GlibcSource != "" {
			if v, err := libver.ParseVersion(lib.Glibc); err == nil {
				env.Glibc, env.GlibcSource = v, lib.GlibcSource
			}
		}
		return
	}
	// Last resort: a C library living outside every discovery root, found
	// by the legacy whole-filesystem search and resolved live.
	p, found := searchLibrary(site, "libc.so.6")
	if !found {
		return
	}
	if banner, ok := site.FS().Attr(p, sitemodel.AttrExecOutput); ok {
		if v, ok := parseGlibcBanner(banner); ok {
			env.Glibc, env.GlibcSource = v, "exec-banner"
			return
		}
	}
	if f, err := site.FS().ReadELF(p); err == nil {
		if v := libver.HighestGlibc(f.VerDefs); !v.IsZero() {
			env.Glibc, env.GlibcSource = v, "api"
		}
	}
}

// parseGlibcBanner extracts "2.5" from "GNU C Library stable release
// version 2.5, by ...". It scans in place rather than splitting the banner
// into fields: the call sits on the per-site survey path, where a
// fleet-wide C-library rollout parses one banner per re-surveyed site.
func parseGlibcBanner(banner string) (libver.Version, bool) {
	const kw = "version"
	rest := banner
	for {
		i := strings.Index(rest, kw)
		if i < 0 {
			return nil, false
		}
		wordStart := i == 0 || isBannerSpace(rest[i-1])
		j := i + len(kw)
		wordEnd := j < len(rest) && isBannerSpace(rest[j])
		rest = rest[j:]
		if !wordStart || !wordEnd {
			continue
		}
		k := 0
		for k < len(rest) && isBannerSpace(rest[k]) {
			k++
		}
		e := k
		for e < len(rest) && !isBannerSpace(rest[e]) {
			e++
		}
		vs := strings.TrimSuffix(rest[k:e], ",")
		if v, err := libver.ParseVersion(vs); err == nil {
			return v, true
		}
	}
}

func isBannerSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// discoverStacks enumerates MPI stacks via user-environment management
// tools, falling back to the shard index's record of MPI libraries and a
// PATH scan for compiler wrappers.
func (e *Engine) discoverStacks(site *sitemodel.Site, env *EnvironmentDescription, shards []*shardRecord) {
	tool := site.EnvTool()
	if tool != nil {
		env.EnvTool = tool.Name()
		if keys, err := tool.Avail(); err == nil {
			for _, key := range keys {
				if info, ok := stackFromKey(site, key, tool.Name()); ok {
					env.Available = append(env.Available, info)
				}
			}
		}
		for _, key := range tool.Loaded() {
			if info, ok := stackFromKey(site, key, tool.Name()); ok {
				loaded := info
				env.Loaded = &loaded
				break
			}
		}
		if len(env.Available) > 0 {
			return
		}
	}
	// Path search: installation prefixes were parsed into stack records at
	// walk time; merge them across shards (deduplicating by prefix), then
	// add installations only reachable through PATH wrappers.
	byPrefix := map[string]StackInfo{}
	for _, rec := range shards {
		if rec == nil {
			continue
		}
		for _, s := range rec.Stacks {
			byPrefix[s.Prefix] = s
		}
	}
	mpiccDirs, _ := deriveCached(e, mpiccKind, site, "", contentStamp(site), func() ([]string, error) {
		return scanMpiccDirs(site), nil
	})
	for _, dir := range mpiccDirs {
		prefix := strings.TrimSuffix(dir, "/bin")
		if _, ok := byPrefix[prefix]; ok {
			continue
		}
		base := prefix[strings.LastIndexByte(prefix, '/')+1:]
		if info, ok := stackFromKey(site, base, "path-search"); ok {
			info.Prefix = prefix
			byPrefix[prefix] = info
		}
	}
	keys := make([]string, 0, len(byPrefix))
	for p := range byPrefix {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, prefix := range keys {
		env.Available = append(env.Available, byPrefix[prefix])
	}
	// Loaded stack: the first mpicc on PATH identifies the active
	// installation.
	for _, dir := range mpiccDirs {
		prefix := strings.TrimSuffix(dir, "/bin")
		if info, ok := byPrefix[prefix]; ok {
			loaded := info
			env.Loaded = &loaded
			break
		}
	}
}

// stackFromKey parses a stack name of the form <impl>-<version>-<compiler>
// (the naming scheme used by module keys, softenv keys, and installation
// paths, e.g. "openmpi-1.4.3-intel"), then confirms the compiler version by
// reading the mpicc wrapper's banner.
func stackFromKey(site *sitemodel.Site, key, via string) (StackInfo, bool) {
	key = strings.TrimPrefix(key, "mpi/")
	key = strings.TrimPrefix(key, "+")
	parts := strings.Split(key, "-")
	if len(parts) < 3 {
		return StackInfo{}, false
	}
	impl := parts[0]
	switch impl {
	case "openmpi", "mpich2", "mvapich2":
	default:
		return StackInfo{}, false
	}
	family := parts[len(parts)-1]
	switch family {
	case "gnu", "intel", "pgi":
	default:
		return StackInfo{}, false
	}
	version := strings.Join(parts[1:len(parts)-1], "-")
	info := StackInfo{
		Key: key, Impl: impl, ImplVersion: version,
		CompilerFamily: family, DiscoveredVia: via,
		Prefix: "/opt/" + key,
	}
	// Wrapper version banner reveals the compiler release (the paper's
	// `mpicc -V` technique).
	if banner, ok := site.FS().Attr(info.Prefix+"/bin/mpicc", sitemodel.AttrExecOutput); ok {
		for _, line := range strings.Split(banner, "\n") {
			if strings.Contains(line, "cc") || strings.Contains(line, "CC") {
				if v, ok := parseCompilerVersionField(line); ok {
					info.CompilerVersion = v
				}
			}
		}
	}
	return info, true
}

// parseCompilerVersionField pulls a plausible release number out of a
// compiler banner line.
func parseCompilerVersionField(line string) (string, bool) {
	for _, f := range strings.Fields(line) {
		v, err := libver.ParseVersion(f)
		if err != nil {
			continue
		}
		ok := true
		for _, n := range v {
			if n > 99 {
				ok = false
			}
		}
		if ok {
			return v.String(), true
		}
	}
	return "", false
}

// MissingLibraries runs the EDC's ldd-equivalent check for a parsed
// binary under the site's current environment, returning the DT_NEEDED
// names that cannot be resolved. bin is only read, so one parse may serve
// many sites.
func MissingLibraries(site *sitemodel.Site, bin *elfimg.File, name string) ([]string, error) {
	resolution, err := ldso.Resolve(bin, name, ldso.Options{
		FS:          site.FS(),
		LibraryPath: envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH")),
		DefaultDirs: site.DefaultLibDirs(),
	})
	if err != nil {
		return nil, err
	}
	return resolution.MissingNames(), nil
}
