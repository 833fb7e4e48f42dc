package feam_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/sitemodel"
	"feam/internal/store"
	"feam/internal/vfs"
)

// TestTwoEnginesSharedRegistry: the registry is the engine's only mutable
// state, so two engines constructed over one registry must produce
// identical predictions while ranking the same fleet concurrently (the
// issue's shared-state acceptance check; run under -race by make race).
func TestTwoEnginesSharedRegistry(t *testing.T) {
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	sites := []*sitemodel.Site{tb.ByName["ranger"], tb.ByName["india"], tb.ByName["blacklight"], tb.ByName["forge"]}

	shared := registry.New()
	engines := []*feam.Engine{
		feam.New(feam.WithRegistry(shared), feam.WithWorkers(len(sites))),
		feam.New(feam.WithRegistry(shared), feam.WithWorkers(len(sites))),
	}
	desc, err := engines[0].Describe(context.Background(), art.Bytes, "cg.shared")
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]feam.SiteAssessment, len(engines))
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func(i int, eng *feam.Engine) {
			defer wg.Done()
			results[i] = eng.RankSites(context.Background(), desc, art.Bytes, sites,
				feam.EvalOptions{Runner: experimentRunner()})
		}(i, eng)
	}
	wg.Wait()

	a, b := results[0], results[1]
	if len(a) != len(sites) || len(b) != len(sites) {
		t.Fatalf("ranked %d and %d sites, want %d", len(a), len(b), len(sites))
	}
	for i := range a {
		if a[i].Site != b[i].Site {
			t.Fatalf("rank %d: engine A ordered %s, engine B ordered %s", i, a[i].Site, b[i].Site)
		}
		pa, pb := a[i].Prediction, b[i].Prediction
		if (pa == nil) != (pb == nil) {
			t.Fatalf("%s: one engine produced no prediction", a[i].Site)
		}
		if pa == nil {
			continue
		}
		if pa.Ready != pb.Ready {
			t.Errorf("%s: Ready diverges (%v vs %v)", a[i].Site, pa.Ready, pb.Ready)
		}
		for _, d := range feam.Determinants() {
			if pa.Determinants[d].Outcome != pb.Determinants[d].Outcome {
				t.Errorf("%s/%s: outcome diverges (%v vs %v)", a[i].Site, d,
					pa.Determinants[d].Outcome, pb.Determinants[d].Outcome)
			}
		}
	}
	// Both engines hand out the same per-site lock from the shared layer.
	if engines[0].SiteLock("ranger") != engines[1].SiteLock("ranger") {
		t.Fatal("engines sharing a registry must share site locks")
	}
}

// TestStoreRehydration is the issue's restart acceptance test: a process
// that surveyed and described through a store is killed; a fresh engine
// (new registry — no warm memory) over a reopened store must answer the
// same prediction with ZERO discover spans, because the survey rehydrates
// from disk instead of re-running.
func TestStoreRehydration(t *testing.T) {
	ctx := context.Background()
	stateFS := vfs.New()
	st1, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	site := minimalSite(t)
	img := plainBinary()

	eng1 := feam.New(feam.WithStore(st1))
	pred1, err := eng1.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.rehydrate", Site: site})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := eng1.Describe(ctx, img, "app.rehydrate")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng1.SaveBundle(&feam.Bundle{App: desc, AppBytes: img, SourceSite: site.Name}); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the store over the same filesystem; fresh registry,
	// fresh engine, no shared in-memory state with eng1.
	st2, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	eng2 := feam.New(feam.WithStore(st2), feam.WithRegistry(registry.New()))
	pred2, err := eng2.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.rehydrate", Site: site})
	if err != nil {
		t.Fatal(err)
	}
	if pred1.Ready != pred2.Ready {
		t.Fatalf("restarted engine predicts Ready=%v, original predicted %v", pred2.Ready, pred1.Ready)
	}
	for _, sp := range eng2.Tracer().Snapshot() {
		if sp.Op == obs.OpDiscover {
			t.Fatalf("rehydrated engine ran a survey: discover span at %s", sp.Site)
		}
	}
	if st2.Stats().Loads == 0 {
		t.Fatal("restarted engine never read the store")
	}
	// The persisted bundle and fleet inventory also survive the restart.
	if _, ok, err := eng2.LoadBundle(desc.ContentHash); !ok || err != nil {
		t.Fatalf("LoadBundle after restart = %v, %v", ok, err)
	}
	names, err := eng2.StoredSites()
	if err != nil || len(names) != 1 || names[0] != site.Name {
		t.Fatalf("StoredSites after restart = %v, %v", names, err)
	}

	// Shard records and the symbol index rehydrate too. Engine A surveys
	// and ABI-checks a Table II site; engine B, over the reopened store
	// with no warm memory and the survey record invalidated, re-surveys
	// it without walking a shard or building the index.
	tb := sharedTestbed(t)
	india := tb.ByName["india"]
	app := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	engA := feam.New(feam.WithStore(st2))
	if _, err := engA.Discover(ctx, india); err != nil {
		t.Fatal(err)
	}
	repA, err := engA.ABICheck(ctx, india, app.Bytes, "cg.rehydrate", false)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	engB := feam.New(feam.WithStore(stB), feam.WithRegistry(registry.New()))
	engB.InvalidateSite(india.Name)
	if _, err := engB.Discover(ctx, india); err != nil {
		t.Fatal(err)
	}
	repB, err := engB.ABICheck(ctx, india, app.Bytes, "cg.rehydrate", false)
	if err != nil {
		t.Fatal(err)
	}
	countOps := func(eng *feam.Engine) map[string]int {
		n := map[string]int{}
		for _, sp := range eng.Tracer().Snapshot() {
			n[sp.Op]++
		}
		return n
	}
	a, b := countOps(engA), countOps(engB)
	if a[obs.OpShardWalk] == 0 || a[obs.OpSymIndex] != 1 {
		t.Fatalf("engine A: %d shard walks and %d index builds, want some and 1",
			a[obs.OpShardWalk], a[obs.OpSymIndex])
	}
	if b[obs.OpDiscover] != 1 || b[obs.OpShardWalk] != 0 || b[obs.OpSymIndex] != 0 {
		t.Errorf("engine B: %d surveys, %d shard walks and %d index builds, want 1, 0 and 0",
			b[obs.OpDiscover], b[obs.OpShardWalk], b[obs.OpSymIndex])
	}
	if got, want := stB.Stats().Loads, int64(a[obs.OpShardWalk]+a[obs.OpSymIndex]); got != want {
		t.Errorf("engine B loaded %d records, want %d (every shard and the index)", got, want)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("rehydrated ABI report differs:\n A %+v\n B %+v", repA, repB)
	}
}

// TestStaleSurveyRecordReSurveys: rehydration is fingerprint-gated — after
// the site mutates, the persisted survey no longer matches and a fresh
// engine must fall back to a real survey rather than serve stale state.
func TestStaleSurveyRecordReSurveys(t *testing.T) {
	ctx := context.Background()
	stateFS := vfs.New()
	st1, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	site := minimalSite(t)
	img := plainBinary()
	eng1 := feam.New(feam.WithStore(st1))
	if _, err := eng1.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.stale", Site: site}); err != nil {
		t.Fatal(err)
	}
	// Mutate the site: its vfs generation (part of the fingerprint) bumps.
	if err := site.FS().WriteFile("/tmp/new-module", []byte("x")); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	eng2 := feam.New(feam.WithStore(st2), feam.WithRegistry(registry.New()))
	if _, err := eng2.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.stale", Site: site}); err != nil {
		t.Fatal(err)
	}
	var discovers int
	for _, sp := range eng2.Tracer().Snapshot() {
		if sp.Op == obs.OpDiscover {
			discovers++
		}
	}
	if discovers == 0 {
		t.Fatal("stale persisted survey must force a real re-survey")
	}
}

// TestCorruptSurveyRecordReSurveys: a damaged record on disk reads as a
// miss — the restarted engine re-surveys cleanly and repairs the record
// with the fresh result.
func TestCorruptSurveyRecordReSurveys(t *testing.T) {
	ctx := context.Background()
	stateFS := vfs.New()
	st1, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	site := minimalSite(t)
	img := plainBinary()
	eng1 := feam.New(feam.WithStore(st1))
	if _, err := eng1.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.corrupt", Site: site}); err != nil {
		t.Fatal(err)
	}
	recs, err := stateFS.Glob("/state/"+feam.KindSurvey, "*.rec")
	if err != nil || len(recs) != 1 {
		t.Fatalf("survey records = %v, %v", recs, err)
	}
	if err := stateFS.WriteFile(recs[0], []byte("feamstore garbage that is not a record")); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	eng2 := feam.New(feam.WithStore(st2), feam.WithRegistry(registry.New()))
	pred, err := eng2.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.corrupt", Site: site})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Fatalf("prediction after corrupt record = %+v", pred)
	}
	if st2.Stats().Corrupt == 0 {
		t.Fatal("corrupt record read was not counted")
	}
	var discovers int
	for _, sp := range eng2.Tracer().Snapshot() {
		if sp.Op == obs.OpDiscover {
			discovers++
		}
	}
	if discovers == 0 {
		t.Fatal("corrupt record must force a real re-survey")
	}
	// The re-survey repaired the record: a third engine rehydrates again.
	st3, err := store.Open(stateFS, "/state")
	if err != nil {
		t.Fatal(err)
	}
	eng3 := feam.New(feam.WithStore(st3), feam.WithRegistry(registry.New()))
	if _, err := eng3.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.corrupt", Site: site}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range eng3.Tracer().Snapshot() {
		if sp.Op == obs.OpDiscover {
			t.Fatal("repaired record should rehydrate without a survey")
		}
	}
}

// TestEngineHoldsNoState: the registry sees all cache traffic — an engine
// built over an empty registry has no private memory of prior work.
func TestEngineHoldsNoState(t *testing.T) {
	ctx := context.Background()
	site := minimalSite(t)
	img := plainBinary()

	shared := registry.New()
	eng := feam.New(feam.WithRegistry(shared))
	if _, err := eng.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.stateless", Site: site}); err != nil {
		t.Fatal(err)
	}
	st := shared.Stats()
	if st.Entries[feam.KindSurvey] == 0 || st.Entries[feam.KindDescription] == 0 || st.Sites == 0 {
		t.Fatalf("registry stats %+v: engine kept state privately", st)
	}
	// Swapping the registry out from under an identically-built engine
	// forgets everything: the next predict re-surveys.
	fresh := feam.New(feam.WithRegistry(registry.New()))
	if _, err := fresh.Predict(ctx, feam.EvalRequest{Binary: img, BinaryName: "app.stateless", Site: site}); err != nil {
		t.Fatal(err)
	}
	var discovers int
	for _, sp := range fresh.Tracer().Snapshot() {
		if sp.Op == obs.OpDiscover {
			discovers++
		}
	}
	if discovers != 1 {
		t.Fatalf("engine with a fresh registry ran %d surveys, want 1", discovers)
	}
}
