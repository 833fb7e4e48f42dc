package vfs

import (
	"errors"
	"path"
	"testing"
)

// CheckDirLookup checks one (directory, name) pair: the handle must give
// what FS.ReadELF(path.Join(dir, name)) and ResolvePath give — the same
// File, the same success or failure cause, and the same real path — and
// run the fault hook exactly as ReadELF runs it. It is exported for the
// fleet-wide check in the external test package.
func CheckDirLookup(t testing.TB, fs *FS, dir, name string) {
	t.Helper()
	p := path.Join(dir, name)
	d := fs.OpenDir(dir)
	if got := d.Join(name); got != p {
		t.Errorf("OpenDir(%q).Join(%q) = %q, want %q", dir, name, got, p)
	}
	f, real, err := d.ReadELF(name)
	wf, werr := fs.ReadELF(p)
	if f != wf || (err == nil) != (werr == nil) {
		t.Errorf("OpenDir(%q).ReadELF(%q) = %p, %v; ReadELF(%q) = %p, %v", dir, name, f, err, p, wf, werr)
		return
	}
	if werr != nil {
		var pe *PathError
		if !errors.As(werr, &pe) || !errors.Is(err, pe.Err) {
			t.Errorf("OpenDir(%q).ReadELF(%q) failed with %v; ReadELF(%q) with %v", dir, name, err, p, werr)
		}
	} else if wreal, rerr := fs.ResolvePath(p); rerr != nil || real != wreal {
		t.Errorf("OpenDir(%q).ReadELF(%q) real path %q; ResolvePath(%q) = %q, %v", dir, name, real, p, wreal, rerr)
	}

	// The hook sees the one read that ReadELF makes, with the joined path,
	// and a failure it injects comes back as ReadELF returns it.
	var calls, wcalls []string
	record := func(calls *[]string) func(op, p string) error {
		return func(op, p string) error {
			*calls = append(*calls, op+" "+p)
			return nil
		}
	}
	fs.SetOpHook(record(&calls))
	d = fs.OpenDir(dir)
	d.ReadELF(name)
	fs.SetOpHook(record(&wcalls))
	fs.ReadELF(p)
	if len(calls) != 1 || len(wcalls) != 1 || calls[0] != wcalls[0] {
		t.Errorf("OpenDir(%q) and ReadELF(%q): hook saw %q, ReadELF's %q", dir, name, calls, wcalls)
	}
	injected := errors.New("injected")
	fs.SetOpHook(func(op, p string) error { return injected })
	_, _, err = d.ReadELF(name)
	_, werr = fs.ReadELF(p)
	fs.SetOpHook(nil)
	if err == nil || werr == nil || err.Error() != werr.Error() || !errors.Is(err, injected) {
		t.Errorf("OpenDir(%q).ReadELF(%q) under a failing hook: %v; ReadELF: %v", dir, name, err, werr)
	}
}

// dirTree builds a small tree holding every shape a search directory or a
// name in it can take.
func dirTree(t testing.TB) *FS {
	fs := New()
	installLib(t, fs, "/usr/lib64", "libx.so.1.0.2", "libx.so.1")
	installLib(t, fs, "/usr/lib64", "liby.so.2.0", "liby.so.2")
	installLib(t, fs, "/lib", "libx.so.1.0.2", "libx.so.1")
	if err := fs.WriteString("/usr/lib64/text", "INPUT(libx.so.1)\n"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/usr/lib64/sub"); err != nil {
		t.Fatal(err)
	}
	for _, link := range [][2]string{
		{"libx.so.1", "/usr/lib64/libx.so"},            // a link chain
		{"/usr/lib64/libx.so.1.0.2", "/usr/lib64/abs"}, // absolute target
		{"../lib64/libx.so.1.0.2", "/usr/lib64/rel"},   // relative target with a slash
		{"libgone.so.1", "/usr/lib64/dangling"},        // missing sibling
		{".", "/usr/lib64/dot"},                        // the directory itself
		{"sub", "/usr/lib64/subl"},                     // sibling directory
		{"loop", "/usr/lib64/loop"},                    // self loop
		{"/usr/lib64", "/lib64"},                       // symlinked directory
		{"lib64", "/usr/libdir"},                       // sibling directory link
		{"/nowhere", "/usr/deadlink"},                  // dangling directory link
		{"looplink", "/usr/looplink"},                  // directory link loop
	} {
		if err := fs.Symlink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

var (
	dirCases = []string{
		"", "/", ".", "..", "usr/lib64", "/usr/lib64", "/usr/lib64/", "//usr//lib64",
		"/usr/./lib64", "/usr/lib64/..", "/usr/missing/../lib64", "/lib64", "/lib",
		"/usr/libdir", "/usr/deadlink", "/usr/looplink", "/usr/lib64/libx.so.1.0.2",
		"/usr/lib64/text", "/usr/lib64/sub", "/usr/lib64/dot", "/nope",
	}
	nameCases = []string{
		"libx.so.1", "libx.so.1.0.2", "liby.so.2", "libx.so", "abs", "rel", "dangling",
		"dot", "subl", "loop", "text", "sub", "missing", "", ".", "..",
		"../lib64/libx.so.1", "sub/../libx.so.1", "/libx.so.1", "libx.so.1/", "lib64/libx.so.1",
	}
)

func TestDirLookupTree(t *testing.T) {
	fs := dirTree(t)
	for _, dir := range dirCases {
		for _, name := range nameCases {
			CheckDirLookup(t, fs, dir, name)
		}
	}
}

// TestDirHitPaths pins the real paths a hit reports, through a symlinked
// directory and the root.
func TestDirHitPaths(t *testing.T) {
	fs := dirTree(t)
	installLib(t, fs, "/", "libr.so.1.0", "libr.so.1")
	for _, c := range []struct{ dir, name, real string }{
		{"/lib64", "libx.so.1", "/usr/lib64/libx.so.1.0.2"},
		{"/usr/libdir/", "libx.so.1.0.2", "/usr/lib64/libx.so.1.0.2"},
		{"", "libr.so.1", "/libr.so.1.0"},
		{"/", "libr.so.1.0", "/libr.so.1.0"},
	} {
		d := fs.OpenDir(c.dir)
		if _, real, err := d.ReadELF(c.name); err != nil || real != c.real {
			t.Errorf("OpenDir(%q).ReadELF(%q) real path %q, %v; want %q", c.dir, c.name, real, err, c.real)
		}
	}
}

// TestDirMissAllocs: a name missing from an opened directory costs no
// allocation, whether the directory exists or not.
func TestDirMissAllocs(t *testing.T) {
	fs := dirTree(t)
	for _, dir := range []string{"/usr/lib64", "/lib64", "/nope"} {
		d := fs.OpenDir(dir)
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := d.ReadELF("libmissing.so.1"); err == nil {
				t.Fatal("found a missing library")
			}
		})
		if allocs != 0 {
			t.Errorf("OpenDir(%q): a miss costs %v allocs, want 0", dir, allocs)
		}
	}
}

func TestCleanMatchesPathClean(t *testing.T) {
	if _, err := clean(""); !errors.Is(err, ErrInvalidPath) {
		t.Errorf(`clean("") = %v, want ErrInvalidPath`, err)
	}
	for _, p := range []string{
		"/", "/usr/lib64", "usr/lib64", "/usr/lib64/", "//usr", "/usr//lib64", "/./usr",
		"/usr/.", "/usr/..", "/..", "..", ".", "/usr/.hidden/lib", "/usr/..lib/x",
		"/usr/lib.../x", "a/b/../../..", "/a/b/./c/", "///",
	} {
		checkClean(t, p)
	}
	for _, cases := range [][]string{dirCases, nameCases} {
		for _, p := range cases {
			if p != "" {
				checkClean(t, p)
			}
		}
	}
}

func checkClean(t *testing.T, p string) {
	t.Helper()
	got, err := clean(p)
	if want := path.Clean("/" + p); err != nil || got != want {
		t.Errorf("clean(%q) = %q, %v; want %q", p, got, err, want)
	}
	if !isCleanAbs(got) {
		t.Errorf("clean(%q) = %q, which isCleanAbs rejects", p, got)
	}
}

func FuzzDirLookup(f *testing.F) {
	for _, dir := range dirCases {
		f.Add(dir, "libx.so.1")
	}
	for _, name := range nameCases {
		f.Add("/usr/lib64", name)
	}
	fs := dirTree(f)
	f.Fuzz(func(t *testing.T, dir, name string) {
		if dir != "" {
			checkClean(t, dir)
		}
		CheckDirLookup(t, fs, dir, name)
	})
}
