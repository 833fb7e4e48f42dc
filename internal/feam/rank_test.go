package feam_test

import (
	"context"
	"testing"

	"feam/internal/feam"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
)

// rankBundle builds the MVAPICH2-1.2 cg bundle at ranger used by the
// ordering tests (fir/india can resolve its missing libraries from it).
func rankBundle(t *testing.T, tb *testbed.Testbed, binName string) (*feam.BinaryDescription, []byte, *feam.Bundle) {
	t.Helper()
	ctx := context.Background()
	eng := feam.New()
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	desc, err := eng.Describe(ctx, art.Bytes, binName)
	if err != nil {
		t.Fatal(err)
	}
	ranger := tb.ByName["ranger"]
	path := "/home/user/" + binName
	if err := ranger.FS().WriteFile(path, art.Bytes); err != nil {
		t.Fatal(err)
	}
	snap := ranger.SnapshotEnv()
	if err := testbed.ActivateStack(ranger, "mvapich2-1.2-gnu"); err != nil {
		t.Fatal(err)
	}
	bundle, _, err := eng.RunSourcePhase(ctx, testConfig("source", path), ranger, experimentRunner())
	ranger.RestoreEnv(snap)
	if err != nil {
		t.Fatal(err)
	}
	return desc, art.Bytes, bundle
}

// TestRankSitesOrderingClasses covers the full ranking ladder in one
// survey: ready-as-is (ranger, the build site) ahead of
// ready-with-staging (india, resolution required) ahead of
// partial-determinant credit (blacklight passes ISA and C library but has
// no MVAPICH2) ahead of a failed survey (no uname surface).
func TestRankSitesOrderingClasses(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	desc, appBytes, bundle := rankBundle(t, tb, "cg.rank-classes")

	broken := minimalSite(t)
	if err := broken.FS().Remove("/proc/sys/kernel/uname"); err != nil {
		t.Fatal(err)
	}
	// Deliberately worst-first input: the ranking must reorder it fully.
	sites := []*sitemodel.Site{broken, tb.ByName["blacklight"], tb.ByName["india"], tb.ByName["ranger"]}
	opts := feam.EvalOptions{Bundle: bundle, Resolve: true, Runner: experimentRunner()}
	ranked := eng.RankSites(ctx, desc, appBytes, sites, opts)
	if len(ranked) != 4 {
		t.Fatalf("ranked = %d", len(ranked))
	}

	if ranked[0].Site != "ranger" {
		t.Fatalf("first = %s, want ranger (ready as-is)", ranked[0].Site)
	}
	if p := ranked[0].Prediction; p == nil || !p.Ready || len(p.ResolvedLibs) != 0 {
		t.Errorf("ranger should be ready without staging: %+v", ranked[0].Prediction)
	}
	if ranked[1].Site != "india" {
		t.Fatalf("second = %s, want india (ready with staging)", ranked[1].Site)
	}
	if p := ranked[1].Prediction; p == nil || !p.Ready || len(p.ResolvedLibs) == 0 {
		t.Errorf("india should be ready via staged libraries: %+v", ranked[1].Prediction)
	}
	if ranked[2].Site != "blacklight" {
		t.Fatalf("third = %s, want blacklight (partial credit)", ranked[2].Site)
	}
	if p := ranked[2].Prediction; p == nil || p.Ready {
		t.Errorf("blacklight should not be ready")
	} else {
		if p.Determinants[feam.DetISA].Outcome != feam.Pass ||
			p.Determinants[feam.DetCLibrary].Outcome != feam.Pass {
			t.Errorf("blacklight should earn ISA and C library credit: %+v", p.Determinants)
		}
		if p.Determinants[feam.DetMPIStack].Outcome != feam.Fail {
			t.Errorf("blacklight should fail the MPI determinant: %+v", p.Determinants)
		}
	}
	if ranked[3].Err == nil {
		t.Error("broken site's survey error lost")
	}

	// The concurrent fan-out must produce the identical ranking.
	par := feam.New(feam.WithWorkers(4)).RankSites(ctx, desc, appBytes, sites, opts)
	for i := range ranked {
		if par[i].Site != ranked[i].Site {
			t.Fatalf("parallel rank %d = %s, sequential = %s", i, par[i].Site, ranked[i].Site)
		}
	}
}

// TestRankSitesStableTies: forge (broken MVAPICH2 stack) and blacklight
// (no MVAPICH2 at all) both fail the MPI determinant with identical
// partial credit, so the ranking must keep whichever order the caller
// supplied — in both directions, and under the concurrent fan-out.
func TestRankSitesStableTies(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	desc, appBytes, _ := rankBundle(t, tb, "cg.rank-ties")
	forge, blacklight := tb.ByName["forge"], tb.ByName["blacklight"]
	opts := feam.EvalOptions{Runner: experimentRunner()}

	for _, order := range [][]*sitemodel.Site{{forge, blacklight}, {blacklight, forge}} {
		ranked := eng.RankSites(ctx, desc, appBytes, order, opts)
		if len(ranked) != 2 {
			t.Fatalf("ranked = %d", len(ranked))
		}
		for i, a := range ranked {
			if a.Site != order[i].Name {
				t.Errorf("tie broke input order: got %s at %d, want %s", a.Site, i, order[i].Name)
			}
			if a.Prediction == nil || a.Prediction.Ready {
				t.Errorf("%s should not be ready", a.Site)
			}
		}
		// Both must have failed on the same determinant for the tie to be
		// meaningful.
		if ranked[0].Prediction.Determinants[feam.DetMPIStack].Outcome != feam.Fail ||
			ranked[1].Prediction.Determinants[feam.DetMPIStack].Outcome != feam.Fail {
			t.Fatalf("expected both sites to fail the MPI determinant")
		}
		par := feam.New(feam.WithWorkers(2)).RankSites(context.Background(), desc, appBytes, order, opts)
		for i, a := range par {
			if a.Site != order[i].Name {
				t.Errorf("parallel tie broke input order: got %s at %d", a.Site, i)
			}
		}
	}
}
