package main

import (
	"fmt"
	"strings"

	"feam/internal/elfimg"
	"feam/internal/envmgmt"
	"feam/internal/feam"
	"feam/internal/sitemodel"
	"feam/internal/toolchain"
	"feam/internal/vfs"
)

// verdict is a known answer: the ready flag plus the first determinant
// that failed ("" when the binary is ready).
type verdict struct {
	ready  bool
	failed string
}

func (v verdict) String() string {
	if v.ready {
		return "ready"
	}
	return "fail:" + v.failed
}

var ready = verdict{ready: true}

func failAt(d feam.Determinant) verdict { return verdict{failed: d.String()} }

// verdictOf reads a verdict off an engine prediction.
func verdictOf(p *feam.Prediction) verdict {
	if p == nil {
		return verdict{failed: "no prediction"}
	}
	for _, d := range feam.Determinants() {
		if p.Determinants[d].Outcome == feam.Fail {
			return verdict{ready: p.Ready, failed: d.String()}
		}
	}
	return verdict{ready: p.Ready}
}

// oracle derives known answers from a site's ground truth. It never
// consults an engine. It remembers what it parsed out of each library,
// with the bytes it parsed: the filesystem replaces a file's byte slice on
// every write, so a remembered entry is used only while the site still
// holds those very bytes, and cannot go stale.
type oracle struct {
	libs map[*vfs.FS]map[string]*libFacts
}

// libFacts is what the oracle needs of one shared object.
type libFacts struct {
	data    []byte
	ok      bool // parsed as ELF
	class   elfimg.Class
	machine elfimg.Machine
	needed  []string
	exports []elfimg.ExportedSymbol
}

func newOracle() *oracle { return &oracle{libs: map[*vfs.FS]map[string]*libFacts{}} }

// same reports whether two slices are the same bytes in memory.
func same(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// facts parses the library at real path p, or returns what it parsed from
// the same bytes before.
func (o *oracle) facts(fs *vfs.FS, p string) *libFacts {
	data, err := fs.ReadFileShared(p)
	if err != nil {
		return &libFacts{}
	}
	byPath := o.libs[fs]
	if byPath == nil {
		byPath = map[string]*libFacts{}
		o.libs[fs] = byPath
	}
	if f := byPath[p]; f != nil && same(f.data, data) {
		return f
	}
	f := &libFacts{data: data}
	if e, err := elfimg.Parse(data); err == nil {
		f.ok, f.class, f.machine, f.needed, f.exports = true, e.Class, e.Machine, e.Needed, e.Exports
	}
	byPath[p] = f
	return f
}

// forget drops what the oracle parsed from bytes fs no longer holds, so
// replaced libraries are not kept alive on its account.
func (o *oracle) forget(fs *vfs.FS) {
	for p, f := range o.libs[fs] {
		if data, err := fs.ReadFileShared(p); err != nil || !same(f.data, data) {
			delete(o.libs[fs], p)
		}
	}
}

// verdict derives what FEAM must answer for b at site from the site's
// ground truth (architecture, C-library release, registered stacks and
// their broken marks, and the libraries on its filesystem) and the
// binary's link set. With probes, a stack counts only if it is not marked
// broken and a natively compiled hello world finds all its libraries;
// without, presence is enough.
func (o *oracle) verdict(site *sitemodel.Site, b *binary, probes bool) (verdict, error) {
	if b.machine != site.Arch.Machine || b.class != site.Arch.Class {
		return failAt(feam.DetISA), nil
	}
	if !b.requiredGlibc.IsZero() && !site.Glibc.AtLeast(b.requiredGlibc) {
		return failAt(feam.DetCLibrary), nil
	}
	// candidates are the stacks FEAM may select among: the preferred
	// compiler family first, as the TEC orders them.
	var candidates []*sitemodel.StackRecord
	if b.truth.Impl != "" {
		var preferred, others []*sitemodel.StackRecord
		for _, rec := range site.Stacks {
			if rec.Impl != b.truth.Impl {
				continue
			}
			if probes && !o.helloRuns(site, rec) {
				continue
			}
			if rec.CompilerFamily == b.truth.CompilerFamily {
				preferred = append(preferred, rec)
			} else {
				others = append(others, rec)
			}
		}
		candidates = preferred
		if len(candidates) == 0 {
			candidates = others
		}
		if len(candidates) == 0 {
			return failAt(feam.DetMPIStack), nil
		}
	} else {
		candidates = []*sitemodel.StackRecord{nil}
	}
	// The TEC takes the first candidate in survey order; the answer is
	// known only when every candidate it could take agrees.
	var want verdict
	for i, rec := range candidates {
		v := ready
		if missing := o.missing(site, rec, b.needed); len(missing) > 0 {
			v = failAt(feam.DetSharedLibs)
		}
		if i > 0 && v != want {
			return verdict{}, fmt.Errorf("%s at %s: answer depends on which %s stack the survey lists first", b.name, site.Name, b.truth.Impl)
		}
		want = v
	}
	return want, nil
}

// helloRuns reports whether FEAM's native probe under rec succeeds: the
// stack is not misconfigured and the hello world it compiles finds every
// library it links.
func (o *oracle) helloRuns(site *sitemodel.Site, rec *sitemodel.StackRecord) bool {
	if rec.Broken {
		return false
	}
	hello, err := toolchain.CompileHello(rec, site)
	if err != nil {
		return false
	}
	f, err := elfimg.Parse(hello.Bytes)
	if err != nil {
		return false
	}
	return len(o.missing(site, rec, f.Needed)) == 0
}

// missing is a plain model of the dynamic loader's search: the stack's
// library directory, LD_LIBRARY_PATH, then the default directories and
// ld.so.conf, following each found library's own dependencies. It returns
// the sonames in the closure of needed that no directory holds.
func (o *oracle) missing(site *sitemodel.Site, stack *sitemodel.StackRecord, needed []string) []string {
	var dirs []string
	if stack != nil {
		dirs = append(dirs, stack.Prefix+"/lib")
	}
	dirs = append(dirs, envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH"))...)
	dirs = append(dirs, site.DefaultLibDirs()...)
	fs := site.FS()
	find := func(soname string) (string, bool) {
		for _, dir := range dirs {
			p := dir + "/" + soname
			if !fs.Exists(p) {
				continue
			}
			if real, err := fs.ResolvePath(p); err == nil {
				return real, true
			}
		}
		return "", false
	}
	var out []string
	seen := map[string]bool{}
	queue := append([]string(nil), needed...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		seen[name] = true
		p, ok := find(name)
		if !ok {
			out = append(out, name)
			continue
		}
		queue = append(queue, o.facts(fs, p).needed...)
	}
	return out
}

// unresolved counts b's imported symbols that no shared object on the
// site's symbol surface exports at the requested version: the
// LD_LIBRARY_PATH entries, the default and ld.so.conf directories, and
// every /opt/<package>/lib, as the ABI analyzer defines that surface. The
// directories are walked afresh on every call.
func (o *oracle) unresolved(site *sitemodel.Site, b *binary) int {
	fs := site.FS()
	var roots []string
	roots = append(roots, envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH"))...)
	roots = append(roots, site.DefaultLibDirs()...)
	if entries, err := fs.ReadDir("/opt"); err == nil {
		for _, e := range entries {
			roots = append(roots, "/opt/"+e.Name+"/lib")
		}
	}
	named := map[string]bool{}
	exact := map[string]bool{}
	seen := map[string]bool{}
	for _, root := range roots {
		_ = fs.Walk(root, func(p string, info vfs.FileInfo) error {
			if info.Kind == vfs.KindDir || !strings.Contains(info.Name, ".so") {
				return nil
			}
			real, err := fs.ResolvePath(p)
			if err != nil || seen[real] {
				return nil
			}
			seen[real] = true
			f := o.facts(fs, real)
			if !f.ok || f.class != b.class || f.machine != b.machine {
				return nil
			}
			for _, ex := range f.exports {
				named[ex.Name] = true
				exact[ex.Name+"@"+ex.Version] = true
			}
			return nil
		})
	}
	n := 0
	for _, im := range b.imports {
		if im.Version == "" && !named[im.Name] || im.Version != "" && !exact[im.Name+"@"+im.Version] {
			n++
		}
	}
	return n
}
