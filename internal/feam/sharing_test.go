package feam_test

import (
	"context"
	"crypto/sha256"
	"testing"

	"feam/internal/feam"
	"feam/internal/libver"
	"feam/internal/obs"
	"feam/internal/sitemodel"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/vfs"
)

// verdict is what a shared image could change about an answer: the ready
// flag, the first failing determinant and the ABI unresolved count.
type verdict struct {
	ready      bool
	failed     string
	unresolved int
}

// TestSharedImagesAreInvisible drives a fleet whose sites share library
// images — india and fir run the same C library and GNU runtimes, and
// forge holds the release india upgrades to — through the mutations that
// rewrite libraries at india: a C-library upgrade and rollback, an export
// stripped from the shared libc and restored, a shared runtime removed and
// restored, and a resolution that stages copies. After every step a warm
// engine (one registry and store across the sequence) and a cold one give
// the same verdict at every site, and every site but india keeps its
// first verdict. The upgrade and the rollback take their images from the
// fleet's store, and restoring the original images still rebuilds
// india's symbol index. At the end, every image two or more sites held
// has the bytes it had before.
func TestSharedImagesAreInvisible(t *testing.T) {
	var specs []testbed.SiteSpec
	for _, s := range testbed.DefaultSpecs() {
		switch s.Name {
		case "ranger", "forge", "india", "fir":
			specs = append(specs, s)
		}
	}
	tb, err := testbed.BuildFrom(specs)
	if err != nil {
		t.Fatal(err)
	}
	india, fir, forge := tb.ByName["india"], tb.ByName["fir"], tb.ByName["forge"]
	fs := india.FS()

	// Record every image held by two or more sites, by its storage.
	holders := map[*byte]map[string]bool{}
	images := map[*byte][]byte{}
	for _, site := range tb.Sites {
		err := site.FS().Walk("/", func(p string, info vfs.FileInfo) error {
			if info.Kind != vfs.KindFile {
				return nil
			}
			data, err := site.FS().ReadFileShared(p)
			if err != nil || len(data) == 0 {
				return err
			}
			if holders[&data[0]] == nil {
				holders[&data[0]] = map[string]bool{}
			}
			holders[&data[0]][site.Name] = true
			images[&data[0]] = data
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sums := map[*byte][32]byte{}
	for k, sites := range holders {
		if len(sites) >= 2 {
			sums[k] = sha256.Sum256(images[k])
		}
	}
	libcOf := func(s *sitemodel.Site) *byte {
		t.Helper()
		b, err := s.FS().ReadFileShared(s.SystemLibDir() + "/libc.so.6")
		if err != nil {
			t.Fatal(err)
		}
		return &b[0]
	}
	libcPath, err := fs.ResolvePath("/lib64/libc.so.6")
	if err != nil {
		t.Fatal(err)
	}
	gfortranPath, err := fs.ResolvePath("/lib64/libgfortran.so.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{libcPath, gfortranPath} {
		b, err := fs.ReadFileShared(p)
		if err != nil {
			t.Fatal(err)
		}
		if !holders[&b[0]]["fir"] {
			t.Fatalf("india and fir do not share %s", p)
		}
	}

	desc, rangerApp, bundle := rankBundle(t, tb, "cg.shared")
	native := compileAt(t, tb, "india", "openmpi-1.4-gnu", "cg")
	nativeDesc, err := feam.New().Describe(context.Background(), native.Bytes, "cg.native")
	if err != nil {
		t.Fatal(err)
	}
	bins := []struct {
		desc *feam.BinaryDescription
		img  []byte
	}{{desc, rangerApp}, {nativeDesc, native.Bytes}}

	ctx := context.Background()
	st, err := store.Open(vfs.New(), "/state")
	if err != nil {
		t.Fatal(err)
	}
	warm := feam.New(feam.WithStore(st))
	judge := func(eng *feam.Engine, site *sitemodel.Site, i int) verdict {
		t.Helper()
		pred, err := eng.Predict(ctx, feam.EvalRequest{
			Desc: bins[i].desc, Binary: bins[i].img, Site: site,
			Options: feam.EvalOptions{Runner: experimentRunner()},
		})
		if err != nil {
			t.Fatalf("%s at %s: %v", bins[i].desc.Name, site.Name, err)
		}
		v := verdict{ready: pred.Ready, failed: "none"}
		for _, d := range feam.Determinants() {
			if pred.Determinants[d].Outcome == feam.Fail {
				v.failed = d.String()
				break
			}
		}
		rep, err := eng.ABICheck(ctx, site, bins[i].img, bins[i].desc.Name, false)
		if err != nil {
			t.Fatalf("ABI check of %s at %s: %v", bins[i].desc.Name, site.Name, err)
		}
		v.unresolved = rep.Missing + rep.Mismatch + rep.Conflicts
		return v
	}
	var first map[string]verdict
	check := func(step string) map[string]verdict {
		t.Helper()
		got := map[string]verdict{}
		for _, site := range tb.Sites {
			for i := range bins {
				key := site.Name + "/" + bins[i].desc.Name
				w, c := judge(warm, site, i), judge(feam.New(), site, i)
				if w != c {
					t.Errorf("%s: %s: warm engine %+v, cold engine %+v", step, key, w, c)
				}
				if first != nil && site != india && w != first[key] {
					t.Errorf("%s: %s changed from %+v to %+v", step, key, first[key], w)
				}
				got[key] = w
			}
		}
		return got
	}
	indexBuilds := warm.Metrics().Histogram(obs.OpSymIndex)
	first = check("initial")

	if err := india.UpgradeCLibrary(libver.V(2, 12)); err != nil {
		t.Fatal(err)
	}
	if libcOf(india) != libcOf(forge) {
		t.Error("the upgrade built a C library the fleet already held")
	}
	if err := india.UpgradeCLibrary(libver.V(2, 5)); err != nil {
		t.Fatal(err)
	}
	if libcOf(india) != libcOf(fir) {
		t.Error("the rollback built a C library the fleet already held")
	}
	before := indexBuilds.Count()
	check("C library upgraded and rolled back")
	if n := indexBuilds.Count() - before; n != 1 {
		t.Errorf("restoring india's original images rebuilt %d symbol indexes, want 1", n)
	}

	// save returns a function that writes p's current bytes and
	// attributes back as a new file.
	save := func(p string) func() {
		t.Helper()
		saved, err := fs.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		attrs := fs.Attrs(p)
		return func() {
			t.Helper()
			if err := fs.WriteFile(p, saved); err != nil {
				t.Fatal(err)
			}
			for k, v := range attrs {
				if err := fs.SetAttr(p, k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	nativeKey := "india/" + nativeDesc.Name
	restore := save(libcPath)
	if err := india.StripExport(libcPath, "memcpy"); err != nil {
		t.Fatal(err)
	}
	if got := check("export stripped"); got[nativeKey].unresolved <= first[nativeKey].unresolved {
		t.Errorf("stripping memcpy left the ABI count at %d", got[nativeKey].unresolved)
	}
	restore()
	before = indexBuilds.Count()
	if got := check("export restored"); got[nativeKey] != first[nativeKey] {
		t.Errorf("after the restore %s = %+v, want %+v", nativeKey, got[nativeKey], first[nativeKey])
	}
	if n := indexBuilds.Count() - before; n != 1 {
		t.Errorf("restoring libc's original bytes rebuilt %d symbol indexes, want 1", n)
	}

	restore = save(gfortranPath)
	if err := fs.Remove(gfortranPath); err != nil {
		t.Fatal(err)
	}
	if got := check("library removed"); got[nativeKey].ready {
		t.Error("india is ready with libgfortran removed")
	}
	restore()
	if got := check("library restored"); got[nativeKey] != first[nativeKey] {
		t.Errorf("after the restore %s = %+v, want %+v", nativeKey, got[nativeKey], first[nativeKey])
	}

	env, err := warm.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := warm.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: rangerApp, Env: env, Site: india,
		Options: feam.EvalOptions{Bundle: bundle, Resolve: true, Runner: experimentRunner()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.ResolvedLibs) == 0 {
		t.Fatalf("resolution staged nothing: %v", pred.Reasons)
	}
	check("copies staged")

	for k, want := range sums {
		if sha256.Sum256(images[k]) != want {
			t.Errorf("an image held by %d sites changed its bytes", len(holders[k]))
		}
	}
}
