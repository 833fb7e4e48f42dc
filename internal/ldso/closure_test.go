package ldso

import (
	"errors"
	"fmt"
	"path"
	"reflect"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/sitemodel"
)

// refResolve and refLocate are resolve and locate as they were before the
// closure searched through directory handles: a path string built and
// walked from the root for every candidate directory, and a second walk
// through ResolvePath for the real path of a hit. They are the reference
// TestResolveHookSequence holds the fault-hook calls and the results to.
func refResolve(root *Object, opts Options) (*Resolution, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("ldso: no filesystem")
	}
	maxObjects := opts.MaxObjects
	if maxObjects == 0 {
		maxObjects = 512
	}
	res := &Resolution{Root: root, Objects: map[string]*Object{}}

	var queue []request
	seen := map[string]bool{}
	missingSeen := map[string]bool{}

	// LD_PRELOAD objects load first; their own dependencies join the
	// closure like anything else.
	for _, p := range opts.Preload {
		f, err := opts.FS.ReadELF(p)
		if err != nil || f.Class != root.File.Class || f.Machine != root.File.Machine {
			res.Missing = append(res.Missing, Missing{Name: p, RequestedBy: "LD_PRELOAD", WrongClass: err == nil})
			continue
		}
		name := f.Soname
		if name == "" {
			name = p
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		obj := &Object{Name: name, Path: p, RealPath: p, File: f, RequestedBy: "LD_PRELOAD"}
		res.Objects[name] = obj
		res.Order = append(res.Order, name)
		for _, n := range f.Needed {
			queue = append(queue, request{n, obj})
		}
	}

	for _, n := range root.File.Needed {
		queue = append(queue, request{n, root})
	}

	for len(queue) > 0 {
		req := queue[0]
		queue = queue[1:]
		if seen[req.name] {
			continue
		}
		seen[req.name] = true
		if len(res.Objects) >= maxObjects {
			return nil, fmt.Errorf("ldso: dependency closure exceeds %d objects", maxObjects)
		}
		obj, wrongClass := refLocate(req.name, req.by, root, opts)
		if obj == nil {
			if !missingSeen[req.name] {
				missingSeen[req.name] = true
				res.Missing = append(res.Missing, Missing{
					Name: req.name, RequestedBy: req.by.Name, WrongClass: wrongClass,
				})
			}
			continue
		}
		obj.RequestedBy = req.by.Name
		res.Objects[req.name] = obj
		res.Order = append(res.Order, req.name)
		for _, n := range obj.File.Needed {
			if !seen[n] {
				queue = append(queue, request{n, obj})
			}
		}
	}

	checkVersions(res)
	if opts.CheckSymbols {
		checkSymbols(res)
	}
	return res, nil
}

func refLocate(name string, requester, root *Object, opts Options) (obj *Object, wrongClass bool) {
	// Search lists are a handful of directories; the buffer keeps this
	// per-dependency list off the heap.
	var buf [16]string
	dirs := append(buf[:0], opts.ExtraSearchDirs...)
	// DT_RPATH of the requesting object, then of the root (the historical
	// inheritance rule FEAM-era systems used). A DT_RUNPATH on the
	// requester disables its RPATH and is searched after LD_LIBRARY_PATH,
	// without inheritance — the modern semantics.
	if requester.File.RunPath == "" {
		if rp := requester.File.RPath; rp != "" {
			dirs = append(dirs, rp)
		}
		if rp := root.File.RPath; rp != "" && requester != root && root.File.RunPath == "" {
			dirs = append(dirs, rp)
		}
	}
	dirs = append(dirs, opts.LibraryPath...)
	if rp := requester.File.RunPath; rp != "" {
		dirs = append(dirs, rp)
	}
	dirs = append(dirs, opts.DefaultDirs...)

	for _, dir := range dirs {
		p := path.Join(dir, name)
		f, err := opts.FS.ReadELF(p)
		if err != nil {
			continue // absent, or not an ELF (linker script, text stub): keep searching
		}
		if f.Class != root.File.Class || f.Machine != root.File.Machine {
			wrongClass = true
			continue
		}
		rp, err := opts.FS.ResolvePath(p)
		if err != nil {
			rp = p
		}
		return &Object{Name: name, Path: p, RealPath: rp, File: f}, false
	}
	return nil, wrongClass
}

// hookSite builds a site whose closures take every search branch: hits
// through sibling soname links, misses, a wrong-class candidate ahead of
// the right one, RPATH (inherited from the root), RUNPATH (not
// inherited), a duplicated LD_LIBRARY_PATH entry, a staging directory and
// LD_PRELOAD objects, one of them missing.
func hookSite(t *testing.T) *sitemodel.Site {
	t.Helper()
	s := buildSite(t)
	for _, l := range []struct {
		dir string
		lib sitemodel.Library
	}{
		{"/usr/lib64", sitemodel.Library{FileName: "libz.so.1.2.3", Class: elfimg.Class32, Machine: elfimg.EM386}},
		{"/usr/lib", sitemodel.Library{FileName: "libz.so.1.2.3"}},
		{"/opt/app/lib", sitemodel.Library{FileName: "libq.so.1.0"}},
		{"/override/lib", sitemodel.Library{FileName: "libq.so.1.9"}},
		{"/rpath/lib", sitemodel.Library{FileName: "libr.so.1.0", Needed: []string{"libsub.so.1", "libc.so.6"}}},
		{"/rpath/lib", sitemodel.Library{FileName: "libsub.so.1.0"}},
		{"/staged", sitemodel.Library{FileName: "libstaged.so.1.0", Needed: []string{"libghost.so.1"}}},
		{"/opt/trace/lib", sitemodel.Library{FileName: "libtrace.so.1.0", Needed: []string{"libdl.so.2", "libc.so.6"}}},
	} {
		if _, err := s.InstallLibrary(l.dir, l.lib); err != nil {
			t.Fatal(err)
		}
	}
	// A library with its own RUNPATH, whose dependency only that RUNPATH
	// holds, and one with its own RPATH.
	for _, l := range []struct {
		path string
		spec elfimg.Spec
	}{
		{"/usr/lib64/librun.so.1", elfimg.Spec{Soname: "librun.so.1", Needed: []string{"librundep.so.1"}, RunPath: "/run/dep"}},
		{"/run/dep/librundep.so.1", elfimg.Spec{Soname: "librundep.so.1"}},
		{"/usr/lib64/librp.so.1", elfimg.Spec{Soname: "librp.so.1", Needed: []string{"librpdep.so.1"}, RPath: "/rp/dep/"}},
		{"/rp/dep/librpdep.so.1", elfimg.Spec{Soname: "librpdep.so.1"}},
	} {
		l.spec.Class, l.spec.Machine, l.spec.Type = elfimg.Class64, elfimg.EMX8664, elfimg.TypeDyn
		if err := s.FS().WriteFile(l.path, elfimg.MustBuild(l.spec)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// hookCases are the closures TestResolveHookSequence runs at hookSite.
func hookCases(s *sitemodel.Site) map[string]struct {
	spec elfimg.Spec
	opts Options
} {
	needed := []string{"libz.so.1", "libq.so.1", "libr.so.1", "librun.so.1", "librp.so.1",
		"libstaged.so.1", "libghost.so.1", "libm.so.6", "libc.so.6"}
	base := optsFor(s)
	full := base
	full.ExtraSearchDirs = []string{"/staged"}
	full.LibraryPath = []string{"/nonexistent", "/override/lib", "/usr/lib64", "lib64", "/opt/app/lib/"}
	full.Preload = []string{"/opt/trace/lib/libtrace.so.1", "/nope/libghost.so", "/usr/lib64/libz.so.1"}
	return map[string]struct {
		spec elfimg.Spec
		opts Options
	}{
		"plain":   {elfimg.Spec{Needed: needed}, base},
		"rpath":   {elfimg.Spec{Needed: needed, RPath: "/rpath/lib"}, full},
		"runpath": {elfimg.Spec{Needed: needed, RunPath: "/opt/app/lib"}, full},
		"both":    {elfimg.Spec{Needed: needed, RPath: "/rpath/lib", RunPath: "/nowhere"}, full},
	}
}

// TestResolveHookSequence: searching through directory handles calls the
// fault hook with the same ordered (op, path) list as the per-path search
// did, and gives the same resolution, with a hook that only records and
// with hooks that fail every Nth read.
func TestResolveHookSequence(t *testing.T) {
	s := hookSite(t)
	fs := s.FS()
	for name, c := range hookCases(s) {
		c.spec.Class, c.spec.Machine, c.spec.Type = elfimg.Class64, elfimg.EMX8664, elfimg.TypeExec
		f, err := elfimg.Parse(elfimg.MustBuild(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		for nth := 0; nth <= 7; nth++ {
			run := func(resolve func(*Object, Options) (*Resolution, error)) ([]string, *Resolution, error) {
				var calls []string
				fs.SetOpHook(func(op, p string) error {
					calls = append(calls, op+" "+p)
					if nth > 0 && len(calls)%nth == 0 {
						return errors.New("injected")
					}
					return nil
				})
				defer fs.SetOpHook(nil)
				res, err := resolve(&Object{Name: "app", Path: "app", RealPath: "app", File: f}, c.opts)
				return calls, res, err
			}
			calls, res, err := run(resolve)
			wcalls, wres, werr := run(refResolve)
			if !reflect.DeepEqual(calls, wcalls) {
				t.Errorf("%s, failing every %dth read: hook calls\n%q\nreference\n%q", name, nth, calls, wcalls)
			}
			if !reflect.DeepEqual(res, wres) || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Errorf("%s, failing every %dth read: resolution %+v, %v; reference %+v, %v", name, nth, res, err, wres, werr)
			}
			if nth == 0 && len(calls) < 20 {
				t.Errorf("%s: only %d hook calls", name, len(calls))
			}
		}
	}
}

// TestResolveMissAllocs: a search directory that does not hold the
// library costs no allocation, so a warm closure allocates as much with
// twelve such directories ahead of each hit as with two. Run by make
// bench-smoke.
func TestResolveMissAllocs(t *testing.T) {
	s := buildSite(t)
	for i := 0; i < 12; i += 2 {
		if _, err := s.InstallLibrary(fmt.Sprintf("/miss/d%d", i), sitemodel.Library{
			FileName: fmt.Sprintf("libother%d.so.1.0", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := elfimg.Parse(appBinary([]string{"libm.so.6", "libpthread.so.0", "libc.so.6"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(misses int) float64 {
		opts := optsFor(s)
		for i := 0; i < misses; i++ {
			opts.LibraryPath = append(opts.LibraryPath, fmt.Sprintf("/miss/d%d", i))
		}
		res, err := Resolve(f, "app", opts)
		if err != nil || !res.OK() || len(res.Objects) != 3 {
			t.Fatalf("resolution with %d missed directories: %v", misses, err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := Resolve(f, "app", opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	two, twelve := allocs(2), allocs(12)
	t.Logf("warm closure: %v allocs with 2 missed directories, %v with 12", two, twelve)
	if two != twelve {
		t.Errorf("warm closure allocates %v times with 2 missed directories ahead of each hit and %v with 12", two, twelve)
	}
}
