package vfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/etc/redhat-release", []byte("CentOS release 5.6 (Final)\n")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/etc/redhat-release")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "CentOS release 5.6 (Final)\n" {
		t.Errorf("content = %q", data)
	}
	// Mutating the returned slice must not alter the stored file.
	data[0] = 'X'
	again, _ := fs.ReadFile("/etc/redhat-release")
	if again[0] != 'C' {
		t.Error("ReadFile returned aliased storage")
	}
}

func TestWriteFileCreatesParents(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/opt/openmpi-1.4.3-intel/lib/libmpi.so.0", "elf"); err != nil {
		t.Fatal(err)
	}
	if !fs.IsDir("/opt/openmpi-1.4.3-intel/lib") {
		t.Error("parent directories not created")
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	_, err := fs.ReadFile("/nope")
	if !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
	var pe *PathError
	if !errors.As(err, &pe) || pe.Path != "/nope" {
		t.Errorf("expected PathError for /nope, got %v", err)
	}
}

func TestMkdir(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/usr"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/usr"); !errors.Is(err, ErrExist) {
		t.Errorf("second mkdir err = %v, want ErrExist", err)
	}
	if err := fs.Mkdir("/a/b"); !errors.Is(err, ErrNotExist) {
		t.Errorf("mkdir with missing parent err = %v", err)
	}
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if !fs.IsDir("/a/b/c") {
		t.Error("MkdirAll did not create the full chain")
	}
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Errorf("MkdirAll should be idempotent: %v", err)
	}
}

func TestMkdirAllThroughFile(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/x", "data"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/x/y"); !errors.Is(err, ErrNotDir) {
		t.Errorf("err = %v, want ErrNotDir", err)
	}
}

func TestOverwriteDirWithFile(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/lib64"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteString("/lib64", "oops"); !errors.Is(err, ErrIsDir) {
		t.Errorf("err = %v, want ErrIsDir", err)
	}
}

func TestSymlinkResolution(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/lib64/libmpich.so.1.2", "real"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("libmpich.so.1.2", "/lib64/libmpich.so.1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/lib64/libmpich.so.1", "/lib64/libmpich.so"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/lib64/libmpich.so")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "real" {
		t.Errorf("chained symlink read = %q", data)
	}
	rp, err := fs.ResolvePath("/lib64/libmpich.so")
	if err != nil {
		t.Fatal(err)
	}
	if rp != "/lib64/libmpich.so.1.2" {
		t.Errorf("ResolvePath = %q", rp)
	}
	li, err := fs.Lstat("/lib64/libmpich.so.1")
	if err != nil {
		t.Fatal(err)
	}
	if li.Kind != KindSymlink || li.Target != "libmpich.so.1.2" {
		t.Errorf("Lstat = %+v", li)
	}
	si, err := fs.Stat("/lib64/libmpich.so.1")
	if err != nil {
		t.Fatal(err)
	}
	if si.Kind != KindFile || si.Size != 4 {
		t.Errorf("Stat through symlink = %+v", si)
	}
}

func TestSymlinkLoop(t *testing.T) {
	fs := New()
	if err := fs.Symlink("/b", "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/a"); !errors.Is(err, ErrLinkLoop) {
		t.Errorf("err = %v, want ErrLinkLoop", err)
	}
}

func TestSymlinkIntoDirectory(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/real/lib/libx.so.1", "x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/real", "/alias"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/alias/lib/libx.so.1")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "x" {
		t.Errorf("read through dir symlink = %q", data)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New()
	for _, f := range []string{"/d/z", "/d/a", "/d/m"} {
		if err := fs.WriteString(f, f); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := fs.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range infos {
		names = append(names, fi.Name)
	}
	if strings.Join(names, ",") != "a,m,z" {
		t.Errorf("ReadDir order = %v", names)
	}
	if _, err := fs.ReadDir("/d/a"); !errors.Is(err, ErrNotDir) {
		t.Errorf("ReadDir on file err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/d/f", "x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); err == nil {
		t.Error("removing non-empty directory should fail")
	}
	if err := fs.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/f") {
		t.Error("file still exists after Remove")
	}
	if err := fs.Remove("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrNotExist) {
		t.Errorf("double remove err = %v", err)
	}
}

func TestWalkAndSkipDir(t *testing.T) {
	fs := New()
	files := []string{"/a/1", "/a/2", "/b/sub/3", "/c"}
	for _, f := range files {
		if err := fs.WriteString(f, "x"); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := fs.Walk("/", func(p string, info FileInfo) error {
		if p == "/b" {
			return SkipDir
		}
		if info.Kind == KindFile {
			visited = append(visited, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(visited, ",") != "/a/1,/a/2,/c" {
		t.Errorf("visited = %v", visited)
	}
}

func TestGlob(t *testing.T) {
	fs := New()
	files := []string{
		"/usr/lib64/libmpi.so.0.0.2",
		"/usr/lib64/libm.so.6",
		"/opt/mvapich2-1.7a/lib/libmpich.so.1.2",
		"/opt/mvapich2-1.7a/bin/mpicc",
	}
	for _, f := range files {
		if err := fs.WriteString(f, "x"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fs.Glob("/", "libmpi*")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/opt/mvapich2-1.7a/lib/libmpich.so.1.2", "/usr/lib64/libmpi.so.0.0.2"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Glob = %v, want %v", got, want)
	}
	if _, err := fs.Glob("/", "["); err == nil {
		t.Error("bad pattern should error")
	}
	none, err := fs.Glob("/opt", "*.conf")
	if err != nil || len(none) != 0 {
		t.Errorf("expected empty result, got %v err %v", none, err)
	}
}

func TestAttrs(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/lib/libfoo.so.1", "elf"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetAttr("/lib/libfoo.so.1", "abi-epoch", "3"); err != nil {
		t.Fatal(err)
	}
	v, ok := fs.Attr("/lib/libfoo.so.1", "abi-epoch")
	if !ok || v != "3" {
		t.Errorf("Attr = %q, %v", v, ok)
	}
	if _, ok := fs.Attr("/lib/libfoo.so.1", "missing"); ok {
		t.Error("missing attr should not be found")
	}
	if err := fs.SetAttr("/nope", "k", "v"); err == nil {
		t.Error("SetAttr on missing file should fail")
	}
}

func TestRelativePathsAreAbsolutized(t *testing.T) {
	fs := New()
	if err := fs.WriteString("tmp/x", "1"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/tmp/x") {
		t.Error("relative path was not rooted at /")
	}
}

func TestPathCleaning(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/a//b/../b/./c", "v"); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v" {
		t.Errorf("content = %q", data)
	}
}

func TestWriteReadQuick(t *testing.T) {
	fs := New()
	// Property: any written content is read back verbatim under a sanitized
	// path derived from the seed byte.
	f := func(seed uint8, content []byte) bool {
		p := "/q/" + strings.Repeat("d", int(seed%5)+1) + "/f"
		if err := fs.WriteFile(p, content); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		if err != nil || len(got) != len(content) {
			return false
		}
		for i := range got {
			if got[i] != content[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFileKindString(t *testing.T) {
	if KindDir.String() != "dir" || KindFile.String() != "file" || KindSymlink.String() != "symlink" {
		t.Error("kind names")
	}
	if FileKind(9).String() != "FileKind(9)" {
		t.Errorf("unknown kind = %q", FileKind(9).String())
	}
}

func TestPathErrorMessage(t *testing.T) {
	fs := New()
	_, err := fs.ReadFile("/missing")
	if err == nil || !strings.Contains(err.Error(), "read /missing:") {
		t.Errorf("err = %v", err)
	}
}

func TestAttrsMap(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/f", "x"); err != nil {
		t.Fatal(err)
	}
	if fs.Attrs("/f") != nil {
		t.Error("attrs on plain file should be nil")
	}
	if fs.Attrs("/missing") != nil {
		t.Error("attrs on missing file should be nil")
	}
	if err := fs.SetAttr("/f", "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetAttr("/f", "b", "2"); err != nil {
		t.Fatal(err)
	}
	m := fs.Attrs("/f")
	if len(m) != 2 || m["a"] != "1" || m["b"] != "2" {
		t.Errorf("Attrs = %v", m)
	}
	// Mutating the returned map must not alter stored attributes.
	m["a"] = "tampered"
	if v, _ := fs.Attr("/f", "a"); v != "1" {
		t.Error("Attrs aliases internal storage")
	}
}

func TestSymlinkErrors(t *testing.T) {
	fs := New()
	if err := fs.WriteString("/exists", "x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/target", "/exists"); err == nil {
		t.Error("symlink over an existing file accepted")
	}
}

func TestMkdirAllThroughDirSymlink(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/real"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/real", "/alias"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/alias/sub/deep"); err != nil {
		t.Fatal(err)
	}
	if !fs.IsDir("/real/sub/deep") {
		t.Error("MkdirAll did not traverse the directory symlink")
	}
	// A dangling symlink in the path fails.
	if err := fs.Symlink("/nowhere", "/dangling"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/dangling/sub"); err == nil {
		t.Error("MkdirAll through a dangling symlink accepted")
	}
}

func TestRenameMovesSubtree(t *testing.T) {
	fs := New()
	mustWrite := func(p, s string) {
		t.Helper()
		if err := fs.WriteFile(p, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("/stage/.tmp/liba.so.1", "A")
	mustWrite("/stage/.tmp/libb.so.2", "B")
	if err := fs.SetAttr("/stage/.tmp/liba.so.1", "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/stage/.tmp", "/stage/final"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/stage/.tmp") {
		t.Error("source still exists after rename")
	}
	data, err := fs.ReadFile("/stage/final/liba.so.1")
	if err != nil || string(data) != "A" {
		t.Errorf("moved file = %q, %v", data, err)
	}
	if v, ok := fs.Attr("/stage/final/liba.so.1", "k"); !ok || v != "v" {
		t.Error("attributes lost in rename")
	}
	// Destination parents are created as needed.
	if err := fs.Rename("/stage/final", "/new/deep/home"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/new/deep/home/libb.so.2") {
		t.Error("deep rename lost the subtree")
	}
}

func TestRenameRefusesBadTargets(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b/f", []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Existing destination.
	if err := fs.Rename("/a", "/b"); !errors.Is(err, ErrExist) {
		t.Errorf("rename onto existing = %v", err)
	}
	// Missing source.
	if err := fs.Rename("/nope", "/c"); !errors.Is(err, ErrNotExist) {
		t.Errorf("rename of missing = %v", err)
	}
	// Renaming a directory into its own subtree.
	if err := fs.Rename("/a", "/a/sub"); err == nil {
		t.Error("rename into own subtree accepted")
	}
	if !fs.Exists("/a/f") || !fs.Exists("/b/f") {
		t.Error("failed renames mutated state")
	}
}

func TestRemoveAll(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/tree/a/b/c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	gen := fs.Generation()
	if err := fs.RemoveAll("/tree"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/tree") {
		t.Error("subtree survives RemoveAll")
	}
	if fs.Generation() == gen {
		t.Error("RemoveAll did not bump the generation")
	}
	// Missing paths are fine, and do not bump the generation.
	gen = fs.Generation()
	if err := fs.RemoveAll("/tree"); err != nil {
		t.Errorf("RemoveAll of missing path = %v", err)
	}
	if err := fs.RemoveAll("/never/was/here"); err != nil {
		t.Errorf("RemoveAll of missing parents = %v", err)
	}
	if fs.Generation() != gen {
		t.Error("no-op RemoveAll bumped the generation")
	}
}

func TestOpHookInjectsFailures(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/ok", []byte("x")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected")
	var ops []string
	fs.SetOpHook(func(op, path string) error {
		ops = append(ops, op)
		if op == "write" {
			return boom
		}
		return nil
	})
	if err := fs.WriteFile("/fails", nil); !errors.Is(err, boom) {
		t.Errorf("hooked write = %v", err)
	}
	if fs.Exists("/fails") {
		t.Error("failed write left state behind")
	}
	if _, err := fs.ReadFile("/ok"); err != nil {
		t.Errorf("hooked read should pass: %v", err)
	}
	fs.SetOpHook(nil)
	if err := fs.WriteFile("/fails", nil); err != nil {
		t.Errorf("cleared hook still failing: %v", err)
	}
	want := map[string]bool{"write": true, "read": true}
	for _, op := range ops {
		delete(want, op)
	}
	if len(want) > 0 {
		t.Errorf("hook did not observe ops %v (saw %v)", want, ops)
	}
}

// TestTreeStamp pins the subtree-fingerprint contract sharded discovery
// depends on: stable across reads, changed by any mutation under the root
// (including same-size content rewrites and attribute changes), and
// untouched by mutations in sibling subtrees.
func TestTreeStamp(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/lib64/libc.so.6", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/opt/stack/lib/libmpi.so.0", []byte("mpi")); err != nil {
		t.Fatal(err)
	}
	lib1, err := fs.TreeStamp("/lib64")
	if err != nil {
		t.Fatal(err)
	}
	opt1, err := fs.TreeStamp("/opt/stack")
	if err != nil {
		t.Fatal(err)
	}
	if lib2, _ := fs.TreeStamp("/lib64"); lib2 != lib1 {
		t.Fatalf("stamp unstable across reads: %#x vs %#x", lib2, lib1)
	}

	// Same-size content rewrite must change the stamp.
	if err := fs.WriteFile("/lib64/libc.so.6", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	lib2, err := fs.TreeStamp("/lib64")
	if err != nil {
		t.Fatal(err)
	}
	if lib2 == lib1 {
		t.Fatal("same-size rewrite did not change the stamp")
	}
	// ... while the sibling subtree keeps its stamp.
	if opt2, _ := fs.TreeStamp("/opt/stack"); opt2 != opt1 {
		t.Fatalf("sibling subtree stamp changed: %#x vs %#x", opt2, opt1)
	}

	// Attribute changes are mutations too.
	if err := fs.SetAttr("/lib64/libc.so.6", "exec.output", "banner"); err != nil {
		t.Fatal(err)
	}
	lib3, _ := fs.TreeStamp("/lib64")
	if lib3 == lib2 {
		t.Fatal("SetAttr did not change the stamp")
	}

	// Creations, removals, and symlinks under the root all invalidate.
	if err := fs.Symlink("libc.so.6", "/lib64/libc.so"); err != nil {
		t.Fatal(err)
	}
	lib4, _ := fs.TreeStamp("/lib64")
	if lib4 == lib3 {
		t.Fatal("symlink creation did not change the stamp")
	}
	if err := fs.Remove("/lib64/libc.so"); err != nil {
		t.Fatal(err)
	}
	lib5, _ := fs.TreeStamp("/lib64")
	if lib5 == lib4 {
		t.Fatal("removal did not change the stamp")
	}

	// A rename into the subtree invalidates it.
	if err := fs.WriteFile("/tmp/new.so", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/tmp/new.so", "/opt/stack/lib/new.so"); err != nil {
		t.Fatal(err)
	}
	if opt3, _ := fs.TreeStamp("/opt/stack"); opt3 == opt1 {
		t.Fatal("rename into subtree did not change the stamp")
	}

	// Missing roots error; fault hooks apply.
	if _, err := fs.TreeStamp("/absent"); err == nil {
		t.Fatal("TreeStamp on a missing root should fail")
	}
	fs.SetOpHook(func(op, p string) error {
		if op == "walk" {
			return fmt.Errorf("injected")
		}
		return nil
	})
	if _, err := fs.TreeStamp("/lib64"); err == nil {
		t.Fatal("TreeStamp should consult the fault hook")
	}
}
