package feam_test

import (
	"context"
	"strings"
	"testing"

	"feam/internal/feam"
	"feam/internal/sitemodel"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

func TestBundleFindLibraryCompatibility(t *testing.T) {
	bundle := &feam.Bundle{
		Libs: []*feam.LibraryCopy{
			{Name: "libmpich.so.1.0", Desc: &feam.BinaryDescription{}},
			{Name: "libgfortran.so.1", Desc: &feam.BinaryDescription{}},
		},
	}
	// Exact hit.
	if lc := bundle.FindLibrary("libmpich.so.1.0"); lc == nil {
		t.Error("exact lookup failed")
	}
	// Soname-major compatibility: a libmpich.so.1 reference is satisfied by
	// the 1.0 copy.
	if lc := bundle.FindLibrary("libmpich.so.1"); lc == nil || lc.Name != "libmpich.so.1.0" {
		t.Errorf("compat lookup = %+v", lc)
	}
	// Different major misses.
	if bundle.FindLibrary("libmpich.so.2") != nil {
		t.Error("major mismatch matched")
	}
	// Non-soname names never match loosely.
	if bundle.FindLibrary("ld-linux-x86-64.so.2") != nil {
		t.Error("loader name matched")
	}
}

func TestBundleSummary(t *testing.T) {
	bundle := makeBundle(t)
	out := bundle.Summary()
	for _, want := range []string{"bundle for", "ranger", "libraries", "requires glibc"} {
		if !strings.Contains(out, want) {
			t.Errorf("Summary missing %q:\n%s", want, out)
		}
	}
}

// TestBundleOnlyTargetPhaseSyntheticImage: a target phase with neither the
// binary on site nor AppBytes in the bundle reconstructs a loader probe
// from the description (tec.syntheticImage).
func TestBundleOnlyTargetPhaseSyntheticImage(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	bundle := makeBundle(t)
	bundle.AppBytes = nil // strip the binary: description-only mode
	india := tb.ByName["india"]
	cfg := testConfig("target", "")
	cfg.BundlePath = "/home/user/desc-only.feambundle"
	pred, _, err := eng.RunTargetPhase(ctx, cfg, india, bundle, experimentRunner())
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic probe reproduces the real binary's missing-library set.
	joined := strings.Join(pred.MissingLibs, ",")
	if len(pred.ResolvedLibs) == 0 && !strings.Contains(joined, "libmpich.so.1.0") {
		t.Errorf("prediction = ready=%v missing=%v resolved=%v",
			pred.Ready, pred.MissingLibs, pred.ResolvedLibs)
	}
	if !pred.Ready {
		t.Errorf("description-only resolution failed: %v", pred.Reasons)
	}
}

func TestRankSitesWithErrorSite(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	india := tb.ByName["india"]
	rec := india.FindStack("openmpi-1.4-gnu")
	art, err := toolchain.Compile(workload.Find("is"), rec, india)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := eng.Describe(ctx, art.Bytes, "is.rank-err")
	if err != nil {
		t.Fatal(err)
	}
	// A site whose discovery fails (no uname surface) must rank last, with
	// the error surfaced rather than swallowed.
	broken := minimalSite(t)
	if err := broken.FS().Remove("/proc/sys/kernel/uname"); err != nil {
		t.Fatal(err)
	}
	ranked := eng.RankSites(ctx, desc, art.Bytes, []*sitemodel.Site{broken, tb.ByName["fir"]},
		feam.EvalOptions{Runner: experimentRunner()})
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	if ranked[0].Site != "fir" || ranked[0].Err != nil {
		t.Errorf("first = %+v", ranked[0])
	}
	if ranked[1].Err == nil {
		t.Error("broken site's error lost")
	}
}

func TestStackKeyAndExtraLibDirsOnEmptyPrediction(t *testing.T) {
	p := &feam.Prediction{}
	if p.StackKey() != "" {
		t.Error("StackKey on empty prediction")
	}
	if p.ExtraLibDirs() != nil {
		t.Error("ExtraLibDirs on empty prediction")
	}
}
