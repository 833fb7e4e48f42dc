package vfs

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"feam/internal/elfimg"
)

// libImage builds a small shared-library image.
func libImage(soname string) []byte {
	return elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeDyn,
		Soname: soname, Needed: []string{"libc.so.6"},
		VerDefs: []string{soname, "LIBX_1.0"},
		Exports: []elfimg.ExportedSymbol{{Name: "x_init", Version: "LIBX_1.0"}},
	})
}

// installLib writes dir/file plus the sibling soname link, the layout
// every installed library has.
func installLib(t testing.TB, fs *FS, dir, file, soname string) {
	t.Helper()
	if err := fs.WriteFile(dir+"/"+file, libImage(soname)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink(file, dir+"/"+soname); err != nil {
		t.Fatal(err)
	}
}

func TestReadELF(t *testing.T) {
	fs := New()
	installLib(t, fs, "/usr/lib64", "libx.so.1.0.2", "libx.so.1")

	f, err := fs.ReadELF("/usr/lib64/libx.so.1")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := elfimg.Parse(libImage("libx.so.1"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, fresh) {
		t.Errorf("ReadELF = %+v, want %+v", f, fresh)
	}
	if again, _ := fs.ReadELF("/usr/lib64/libx.so.1.0.2"); again != f {
		t.Error("the link and its target returned different Files")
	}

	// SetAttr and Rename keep the node, so they keep the memo.
	if err := fs.SetAttr("/usr/lib64/libx.so.1.0.2", "abi.epoch", "3"); err != nil {
		t.Fatal(err)
	}
	if again, _ := fs.ReadELF("/usr/lib64/libx.so.1"); again != f {
		t.Error("SetAttr dropped the memo")
	}
	if err := fs.Rename("/usr/lib64", "/usr/local/lib64"); err != nil {
		t.Fatal(err)
	}
	if again, _ := fs.ReadELF("/usr/local/lib64/libx.so.1"); again != f {
		t.Error("Rename dropped the memo")
	}

	// A rewrite, even with identical bytes, installs a new file.
	if err := fs.WriteFile("/usr/local/lib64/libx.so.1.0.2", libImage("libx.so.1")); err != nil {
		t.Fatal(err)
	}
	rewritten, err := fs.ReadELF("/usr/local/lib64/libx.so.1")
	if err != nil {
		t.Fatal(err)
	}
	if rewritten == f || !reflect.DeepEqual(rewritten, fresh) {
		t.Error("WriteFile did not give a fresh parse")
	}

	// The fault hook runs on memoized reads too.
	injected := errors.New("injected")
	fs.SetOpHook(func(op, p string) error {
		if op == "read" {
			return injected
		}
		return nil
	})
	if _, err := fs.ReadELF("/usr/local/lib64/libx.so.1"); !errors.Is(err, injected) {
		t.Errorf("memoized read under a failing hook: err = %v", err)
	}
	fs.SetOpHook(nil)

	// Parse failures are memoized and reported on every call.
	if err := fs.WriteString("/usr/local/lib64/libx.so", "INPUT(libx.so.1)\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := fs.ReadELF("/usr/local/lib64/libx.so"); !errors.Is(err, elfimg.ErrNotELF) {
			t.Errorf("non-ELF file: err = %v, want ErrNotELF", err)
		}
	}
	if _, err := fs.ReadELF("/usr/local/lib64"); !errors.Is(err, ErrIsDir) {
		t.Errorf("directory: err = %v, want ErrIsDir", err)
	}
	if _, err := fs.ReadELF("/usr/local/lib64/libmissing.so.1"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}
}

// TestReadELFConcurrent races first reads of unparsed files: every caller
// must get the one File the memo keeps. Run it under -race.
func TestReadELFConcurrent(t *testing.T) {
	fs := New()
	names := []string{"liba.so.1", "libb.so.2", "libc.so.6", "libd.so.0"}
	for _, n := range names {
		installLib(t, fs, "/lib64", n+".9", n)
	}
	got := make([][]*elfimg.File, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, n := range names {
				f, err := fs.ReadELF("/lib64/" + n)
				if err != nil {
					t.Error(err)
				}
				got[g] = append(got[g], f)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range names {
			if got[g][i] != got[0][i] {
				t.Errorf("goroutine %d got a different File for %s", g, names[i])
			}
		}
	}
}

// TestReadELFHitAllocs pins the memo-hit path — a clean absolute path
// through a sibling symlink, no fault hook — at zero allocations.
func TestReadELFHitAllocs(t *testing.T) {
	fs := New()
	installLib(t, fs, "/apps/openmpi-1.4-gnu/lib", "libmpi.so.0.0.1", "libmpi.so.0")
	const p = "/apps/openmpi-1.4-gnu/lib/libmpi.so.0"
	if _, err := fs.ReadELF(p); err != nil {
		t.Fatal(err)
	}
	var sink *elfimg.File
	allocs := testing.AllocsPerRun(1000, func() {
		sink, _ = fs.ReadELF(p)
	})
	if sink == nil {
		t.Fatal("ReadELF returned no File")
	}
	if allocs != 0 {
		t.Errorf("ReadELF memo hit: %v allocs/op, want 0", allocs)
	}
}

// TestLookupMatchesGeneralWalker checks the clean-path walker against the
// general one on clean, unclean and relative paths, through every link
// shape, and into missing entries and through files.
func TestLookupMatchesGeneralWalker(t *testing.T) {
	fs := New()
	installLib(t, fs, "/usr/lib64", "libx.so.1.0.2", "libx.so.1")
	for _, link := range [][2]string{
		{"libx.so.1", "/usr/lib64/libx.so"},            // sibling link to a link
		{"/usr/lib64/libx.so.1.0.2", "/usr/lib64/abs"}, // absolute target
		{"../lib64/libx.so.1.0.2", "/usr/lib64/rel"},   // relative target with a slash
		{"libgone.so.1", "/usr/lib64/dangling"},        // missing sibling
		{".", "/usr/lib64/dot"},                        // the directory itself
		{"/usr/lib64", "/lib64"},                       // intermediate directory link
		{"lib64", "/usr/libdir"},                       // sibling directory link
		{"loop", "/usr/lib64/loop"},                    // self loop
	} {
		if err := fs.Symlink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{
		"/", "", "usr/lib64/libx.so.1", "/usr//lib64/libx.so.1", "/usr/lib64/",
		"/usr/./lib64/libx.so.1", "/usr/missing/../lib64/libx.so.1", "/usr/lib64/..",
		"/usr/lib64/libx.so.1", "/usr/lib64/libx.so.1.0.2", "/usr/lib64/libx.so",
		"/usr/lib64/abs", "/usr/lib64/rel", "/usr/lib64/dangling", "/usr/lib64/dot",
		"/lib64/libx.so.1", "/usr/libdir", "/usr/libdir/libx.so.1", "/usr/lib64/loop",
		"/usr/lib64/missing", "/usr/lib64/libx.so.1.0.2/child", "/usr/lib64/libx.so.1/child",
		"/nope/libx.so.1",
	}
	for _, p := range paths {
		for _, follow := range []bool{true, false} {
			n, rp, err := fs.lookup(p, follow)
			wn, wrp, werr := fs.walkGeneral(p, follow)
			if n != wn || rp != wrp || !errors.Is(err, werr) {
				t.Errorf("lookup(%q, %v) = %p %q %v, general walker %p %q %v",
					p, follow, n, rp, err, wn, wrp, werr)
			}
			if follow {
				if n2, err2 := fs.lookupNode(p); n2 != wn || !errors.Is(err2, werr) {
					t.Errorf("lookupNode(%q) = %p %v, general walker %p %v", p, n2, err2, wn, werr)
				}
			}
		}
	}
}

// TestWriteBlobSharesContentAndMemo: files on two filesystems that hold
// one blob share its bytes and its parse, even when filled from both at
// once, while every write of the blob still installs a new file that
// stamps and generations see.
func TestWriteBlobSharesContentAndMemo(t *testing.T) {
	b := NewBlob(libImage("libx.so.1"))
	a, c := New(), New()
	for _, fs := range []*FS{a, c} {
		if err := fs.WriteBlob("/lib64/libx.so.1", b); err != nil {
			t.Fatal(err)
		}
	}
	ba, _ := a.ReadFileShared("/lib64/libx.so.1")
	bc, _ := c.ReadFileShared("/lib64/libx.so.1")
	if &ba[0] != &bc[0] {
		t.Fatal("two files holding one blob do not share its bytes")
	}
	got := make([]*elfimg.File, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fs := a
			if g%2 == 1 {
				fs = c
			}
			got[g], _ = fs.ReadELF("/lib64/libx.so.1")
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] == nil || got[g] != got[0] {
			t.Fatalf("goroutine %d got a different File for the shared blob", g)
		}
	}

	stamp, err := a.TreeStamp("/lib64")
	if err != nil {
		t.Fatal(err)
	}
	gen := a.ContentGeneration()
	if err := a.WriteBlob("/lib64/libx.so.1", b); err != nil {
		t.Fatal(err)
	}
	if again, _ := a.TreeStamp("/lib64"); again == stamp || a.ContentGeneration() == gen {
		t.Error("rewriting a file with the blob it already held is invisible to stamps")
	}
	if f, _ := a.ReadELF("/lib64/libx.so.1"); f != got[0] {
		t.Error("rewriting the same blob dropped its memo")
	}
}
