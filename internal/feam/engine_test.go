package feam_test

import (
	"context"
	"sync"
	"testing"

	"feam/internal/feam"
)

// TestEngineEDCCache: repeat discovery of an unchanged site is served from
// the engine's cache (same pointer), and any environment or filesystem
// mutation produces a fresh survey.
func TestEngineEDCCache(t *testing.T) {
	site := minimalSite(t)
	ctx := context.Background()
	eng := feam.New()
	edcHits := eng.Metrics().Counter("edc_hits")
	edcMisses := eng.Metrics().Counter("edc_misses")

	env1, err := eng.Discover(ctx, site)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := eng.Discover(ctx, site)
	if err != nil {
		t.Fatal(err)
	}
	if env1 != env2 {
		t.Error("unchanged site should be served from the EDC cache")
	}
	if edcHits.Load() != 1 || edcMisses.Load() != 1 {
		t.Errorf("edc hits=%d misses=%d, want 1/1",
			edcHits.Load(), edcMisses.Load())
	}

	// Environment mutation changes the fingerprint.
	site.Setenv("MODULEPATH", "/tmp/elsewhere")
	env3, err := eng.Discover(ctx, site)
	if err != nil {
		t.Fatal(err)
	}
	if env3 == env2 {
		t.Error("env mutation should invalidate the cached description")
	}

	// Filesystem mutation bumps the vfs generation counter.
	if err := site.FS().WriteFile("/tmp/marker", []byte("x")); err != nil {
		t.Fatal(err)
	}
	env4, err := eng.Discover(ctx, site)
	if err != nil {
		t.Fatal(err)
	}
	if env4 == env3 {
		t.Error("fs mutation should invalidate the cached description")
	}

	// Explicit invalidation also forces a fresh survey.
	before := edcMisses.Load()
	eng.InvalidateSite(site.Name)
	if _, err := eng.Discover(ctx, site); err != nil {
		t.Fatal(err)
	}
	if edcMisses.Load() != before+1 {
		t.Error("InvalidateSite should force a cache miss")
	}
}

// TestEngineEDCCacheDistinctSites: two different Site objects sharing a
// name must never share cache entries, even if their fingerprints collide.
func TestEngineEDCCacheDistinctSites(t *testing.T) {
	a, b := minimalSite(t), minimalSite(t)
	ctx := context.Background()
	eng := feam.New()
	envA, err := eng.Discover(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	envB, err := eng.Discover(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if envA == envB {
		t.Error("distinct sites with the same name must not share a cache entry")
	}
}

// TestEngineBDCCache: describing the same bytes twice hits the binary
// description cache; different content or a different name misses.
func TestEngineBDCCache(t *testing.T) {
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "ep")
	ctx := context.Background()
	eng := feam.New()

	d1, err := eng.Describe(ctx, art.Bytes, "ep.A")
	if err != nil {
		t.Fatal(err)
	}
	if d1.ContentHash == "" {
		t.Error("description should carry the binary's content hash")
	}
	d2, err := eng.Describe(ctx, art.Bytes, "ep.A")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("identical bytes+name should return the memoized description")
	}
	// Same bytes under a different name is a distinct BDC entry (the name
	// feeds stage-dir derivation) but shares the content hash.
	d3, err := eng.Describe(ctx, art.Bytes, "ep.B")
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 || d3.ContentHash != d1.ContentHash {
		t.Error("renamed binary should re-describe under the same content hash")
	}
	hits := eng.Metrics().Counter("bdc_hits").Load()
	misses := eng.Metrics().Counter("bdc_misses").Load()
	if hits != 1 || misses != 2 {
		t.Errorf("bdc hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestEngineContextCancellation: a cancelled context aborts Describe,
// Discover and Predict with the context's error.
func TestEngineContextCancellation(t *testing.T) {
	tb := sharedTestbed(t)
	india := tb.ByName["india"]
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "ep")
	eng := feam.New()
	ctx, cancel := context.WithCancel(context.Background())

	desc, err := eng.Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		t.Fatal(err)
	}
	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}

	cancel()
	if _, err := eng.Describe(ctx, art.Bytes, "other-name"); err == nil {
		t.Error("Describe should fail after cancellation")
	}
	if _, err := eng.Discover(ctx, minimalSite(t)); err == nil {
		t.Error("Discover should fail after cancellation")
	}
	if _, err := eng.Predict(ctx, feam.EvalRequest{Desc: desc, Binary: art.Bytes, Env: env, Site: india}); err == nil {
		t.Error("Predict should fail after cancellation")
	}
}

// TestEngineEvaluateNoInlineDeterminants: a custom evaluator list fully
// replaces the built-in pipeline — with an empty registry nothing is
// evaluated, proving Predict itself holds no determinant logic.
func TestEngineEvaluateNoInlineDeterminants(t *testing.T) {
	tb := sharedTestbed(t)
	india := tb.ByName["india"]
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "ep")
	ctx := context.Background()
	eng := feam.New()

	desc, err := eng.Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		t.Fatal(err)
	}
	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: india,
		Options: feam.EvalOptions{Evaluators: []feam.DeterminantEvaluator{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for det, res := range pred.Determinants {
		if res.Outcome != feam.Unknown {
			t.Errorf("determinant %v evaluated with an empty registry: %v", det, res.Outcome)
		}
	}
	// A single-evaluator registry touches exactly its own determinant.
	pred, err = eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: india,
		Options: feam.EvalOptions{Evaluators: []feam.DeterminantEvaluator{feam.ISAEvaluator{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Determinants[feam.DetISA].Outcome != feam.Pass {
		t.Errorf("ISA should pass: %+v", pred.Determinants[feam.DetISA])
	}
	if pred.Determinants[feam.DetMPIStack].Outcome != feam.Unknown {
		t.Error("MPI determinant must stay untouched without its evaluator")
	}
}

// TestEngineConcurrentSharedUse: many goroutines share one engine for
// discovery, description and evaluation against the same sites. Run under
// -race this exercises the cache and metrics locking.
func TestEngineConcurrentSharedUse(t *testing.T) {
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "ep")
	ctx := context.Background()
	eng := feam.New()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, site := range tb.Sites {
				lock := eng.SiteLock(site.Name)
				lock.Lock()
				env, err := eng.Discover(ctx, site)
				if err != nil {
					lock.Unlock()
					errs <- err
					return
				}
				desc, err := eng.Describe(ctx, art.Bytes, art.Name)
				if err != nil {
					lock.Unlock()
					errs <- err
					return
				}
				if _, err := eng.Predict(ctx, feam.EvalRequest{Desc: desc, Binary: art.Bytes, Env: env, Site: site}); err != nil {
					lock.Unlock()
					errs <- err
					return
				}
				lock.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := eng.Metrics().Counter("evaluations").Load(); got != int64(8*len(tb.Sites)) {
		t.Errorf("evaluations = %d, want %d", got, 8*len(tb.Sites))
	}
	if eng.Metrics().Counter("edc_hits").Load() == 0 {
		t.Error("concurrent re-discovery should hit the EDC cache")
	}
}

// TestBundleRoundTripContentHash: the content hash survives bundle
// encode/decode so staged-directory derivation is stable across transport.
func TestBundleRoundTripContentHash(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "ep")
	desc, err := eng.Describe(ctx, art.Bytes, "ep.hash")
	if err != nil {
		t.Fatal(err)
	}
	data, err := feam.EncodeBundle(&feam.Bundle{App: desc})
	if err != nil {
		t.Fatal(err)
	}
	back, err := feam.DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.App.ContentHash != desc.ContentHash || back.App.ContentHash == "" {
		t.Errorf("content hash lost in round trip: %q vs %q", back.App.ContentHash, desc.ContentHash)
	}
}
