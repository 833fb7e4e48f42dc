package feam_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/feam"
	"feam/internal/ldso"
	"feam/internal/libver"
	"feam/internal/testbed"
	"feam/internal/vfs"
)

var errMemoFault = errors.New("injected read fault")

// TestParsedELFMemoIsInvisible drives a site through the mutations that
// rewrite libraries — a C-library upgrade and rollback, a stack library
// removed and restored, an export stripped and restored, a resolution
// that stages copies, then attribute updates and a rename — and checks
// after every step that the per-file parsed-ELF memo (vfs.ReadELF) serves
// exactly what a fresh parse of the current bytes gives:
//   - eight goroutines filling the memos at once all get one File per file;
//   - a memoized File survives exactly as long as the file's bytes do;
//   - every object of a warm loader closure is the memo and deep-equals a
//     fresh elfimg.Parse of its bytes;
//   - a fault hook still fails a read whose parse is memoized.
func TestParsedELFMemoIsInvisible(t *testing.T) {
	var specs []testbed.SiteSpec
	for _, s := range testbed.DefaultSpecs() {
		if s.Name == "ranger" || s.Name == "india" {
			specs = append(specs, s)
		}
	}
	tb, err := testbed.BuildFrom(specs)
	if err != nil {
		t.Fatal(err)
	}
	desc, rangerApp, bundle := rankBundle(t, tb, "cg.memo")
	native := compileAt(t, tb, "india", "openmpi-1.4-gnu", "cg")
	india := tb.ByName["india"]
	fs := india.FS()
	stackLib := india.FindStack("openmpi-1.4-gnu").Prefix + "/lib"

	var stageDir string
	prevFile := map[string]*elfimg.File{} // memo per file after the previous step
	prevData := map[string]*byte{}        // identity of each file's bytes then
	check := func(step string) *ldso.Resolution {
		t.Helper()
		dirs := append(india.DefaultLibDirs(), stackLib)
		if stageDir != "" {
			dirs = append(dirs, stageDir)
		}
		var paths []string
		for _, dir := range dirs {
			ents, err := fs.ReadDir(dir)
			if err != nil {
				continue
			}
			for _, e := range ents {
				if e.Kind == vfs.KindFile {
					paths = append(paths, e.Path)
				}
			}
		}
		got := make([][]*elfimg.File, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = make([]*elfimg.File, len(paths))
				for i, p := range paths {
					got[g][i], _ = fs.ReadELF(p)
				}
			}(g)
		}
		wg.Wait()
		memo := map[string]*elfimg.File{}
		data := map[string]*byte{}
		for i, p := range paths {
			for g := range got {
				if got[g][i] != got[0][i] {
					t.Errorf("%s: concurrent ReadELF calls returned different Files for %s", step, p)
				}
			}
			b, err := fs.ReadFileShared(p)
			if err != nil || got[0][i] == nil {
				continue
			}
			memo[p], data[p] = got[0][i], &b[0]
			if old, ok := prevFile[p]; ok {
				if sameBytes := prevData[p] == &b[0]; sameBytes != (old == got[0][i]) {
					t.Errorf("%s: %s: bytes unchanged = %v but memo kept = %v", step, p, sameBytes, !sameBytes)
				}
			}
		}
		prevFile, prevData = memo, data

		var staged []string
		if stageDir != "" {
			staged = []string{stageDir}
		}
		var nativeRes *ldso.Resolution
		for _, bin := range []struct {
			name  string
			img   []byte
			extra []string
		}{{"cg.native", native.Bytes, nil}, {"cg.memo", rangerApp, staged}} {
			res, err := ldso.ResolveBytes(bin.img, bin.name, ldso.Options{
				FS: fs, LibraryPath: []string{stackLib},
				DefaultDirs: india.DefaultLibDirs(), ExtraSearchDirs: bin.extra,
			})
			if err != nil {
				t.Fatalf("%s: resolving %s: %v", step, bin.name, err)
			}
			if nativeRes == nil {
				nativeRes = res
			}
			for name, obj := range res.Objects {
				b, err := fs.ReadFileShared(obj.Path)
				if err != nil {
					t.Fatalf("%s: %s: %v", step, obj.Path, err)
				}
				fresh, err := elfimg.Parse(b)
				if err != nil {
					t.Fatalf("%s: %s: %v", step, obj.Path, err)
				}
				if !reflect.DeepEqual(obj.File, fresh) {
					t.Errorf("%s: %s (%s) differs from a fresh parse of its bytes", step, name, obj.Path)
				}
				if m, ok := memo[obj.RealPath]; ok && m != obj.File {
					t.Errorf("%s: %s was not served from the memo", step, obj.Path)
				}
				fs.SetOpHook(func(op, p string) error {
					if op == "read" && p == obj.Path {
						return errMemoFault
					}
					return nil
				})
				_, err = fs.ReadELF(obj.Path)
				fs.SetOpHook(nil)
				if !errors.Is(err, errMemoFault) {
					t.Errorf("%s: memoized read of %s ignored the fault hook: %v", step, obj.Path, err)
				}
			}
		}
		return nativeRes
	}

	res := check("initial")
	libmpi, ok := res.Objects["libmpi.so.0"]
	if !ok || !res.OK() {
		t.Fatalf("native closure should load libmpi.so.0 cleanly:\n%s", res.Summary())
	}
	mpiPath := libmpi.RealPath

	for _, v := range []libver.Version{libver.V(2, 12), libver.V(2, 5)} {
		if err := india.UpgradeCLibrary(v); err != nil {
			t.Fatal(err)
		}
		check("C library " + v.String())
	}

	saved, err := fs.ReadFile(mpiPath)
	if err != nil {
		t.Fatal(err)
	}
	attrs := fs.Attrs(mpiPath)
	restore := func() {
		t.Helper()
		if err := fs.WriteFile(mpiPath, saved); err != nil {
			t.Fatal(err)
		}
		for k, v := range attrs {
			if err := fs.SetAttr(mpiPath, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Remove(mpiPath); err != nil {
		t.Fatal(err)
	}
	if res := check("stack library removed"); res.OK() {
		t.Error("closure still loads with libmpi removed")
	}
	restore()
	check("stack library restored")

	if err := india.StripExport(mpiPath, "MPI_Init"); err != nil {
		t.Fatal(err)
	}
	check("export stripped")
	restore()
	check("export restored")

	ctx := context.Background()
	eng := feam.New()
	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: rangerApp, Env: env, Site: india,
		Options: feam.EvalOptions{Bundle: bundle, Resolve: true, Runner: experimentRunner()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.ResolvedLibs) == 0 {
		t.Fatalf("resolution staged nothing: %v", pred.Reasons)
	}
	stageDir = pred.StageDir
	check("copies staged")

	// Attribute updates and a rename keep every file node, so every memo
	// must survive them.
	kept := prevFile
	for p := range kept {
		if err := fs.SetAttr(p, "memo-test", "1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Rename(stageDir, stageDir+".moved"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(stageDir+".moved", stageDir); err != nil {
		t.Fatal(err)
	}
	check("attributes set and stage directory renamed")
	for p, f := range kept {
		if prevFile[p] != f {
			t.Errorf("SetAttr or Rename dropped the memo of %s", p)
		}
	}
}
