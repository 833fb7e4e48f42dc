package feam_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"feam/internal/experiment"
	"feam/internal/fault"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/sitemodel"
)

// faultEngine returns a fresh engine plus its private metrics registry, so
// each test observes only its own retry/rollback activity.
func faultEngine() (*feam.Engine, *obs.Registry) {
	eng := feam.New()
	return eng, eng.Metrics()
}

// TestStagingRollbackIsAllOrNothing breaks the second staging write with a
// permanent fault: the transaction must roll back completely — no stage
// directory, no temp directory, no ResolvedLibs — and every planned
// library must explain the rollback in UnresolvedLibs.
func TestStagingRollbackIsAllOrNothing(t *testing.T) {
	tb := sharedTestbed(t)
	desc, appBytes, bundle := rankBundle(t, tb, "cg.fault-rollback")
	india := tb.ByName["india"]
	eng, counters := faultEngine()
	ctx := context.Background()

	var script fault.Script
	script.FailNth(fault.Permanent, "write", 2)
	india.FS().SetOpHook(fault.Hook(ctx, &script))
	defer india.FS().SetOpHook(nil)

	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: appBytes, Env: env, Site: india,
		Options: feam.EvalOptions{Bundle: bundle, Resolve: true, Runner: experimentRunner()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if script.Injected() != 1 {
		t.Fatalf("faults injected = %d, want 1", script.Injected())
	}
	if pred.Ready {
		t.Error("prediction ready despite staging rollback")
	}
	if len(pred.ResolvedLibs) != 0 {
		t.Errorf("ResolvedLibs = %v after rollback", pred.ResolvedLibs)
	}
	if len(pred.UnresolvedLibs) == 0 {
		t.Fatal("rollback left no explanation in UnresolvedLibs")
	}
	for lib, reason := range pred.UnresolvedLibs {
		if !strings.Contains(reason, "staging rolled back") {
			t.Errorf("UnresolvedLibs[%s] = %q, want a rollback explanation", lib, reason)
		}
	}
	// All-or-nothing: neither the published directory nor the staging
	// temp directory survives.
	if india.FS().Exists(pred.StageDir) {
		t.Errorf("stage dir %s exists after rollback", pred.StageDir)
	}
	if india.FS().Exists(pred.StageDir + ".staging") {
		t.Errorf("staging temp dir survived rollback")
	}
	if got := counters.Counter("staging_rollbacks").Load(); got != 1 {
		t.Errorf("StagingRollbacks = %d, want 1", got)
	}
	if got := counters.Counter("staging_commits").Load(); got != 0 {
		t.Errorf("StagingCommits = %d, want 0", got)
	}
}

// TestStagingRetriesTransientFaultThenCommits injects a single transient
// write fault: the write must be retried under the engine policy and the
// whole plan committed atomically.
func TestStagingRetriesTransientFaultThenCommits(t *testing.T) {
	tb := sharedTestbed(t)
	desc, appBytes, bundle := rankBundle(t, tb, "cg.fault-retry-commit")
	india := tb.ByName["india"]
	eng, counters := faultEngine()
	ctx := context.Background()

	var script fault.Script
	script.FailNext(fault.Transient, "write")
	india.FS().SetOpHook(fault.Hook(ctx, &script))
	defer india.FS().SetOpHook(nil)

	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: appBytes, Env: env, Site: india,
		Options: feam.EvalOptions{Bundle: bundle, Resolve: true, Runner: experimentRunner()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if script.Injected() != 1 {
		t.Fatalf("faults injected = %d, want 1", script.Injected())
	}
	if !pred.Ready {
		t.Fatalf("prediction not ready despite retryable fault: %v", pred.Reasons)
	}
	if len(pred.ResolvedLibs) == 0 {
		t.Fatal("no libraries resolved")
	}
	for _, lib := range pred.ResolvedLibs {
		if !india.FS().Exists(pred.StageDir + "/" + lib) {
			t.Errorf("committed stage dir missing %s", lib)
		}
	}
	if india.FS().Exists(pred.StageDir + ".staging") {
		t.Error("staging temp dir survived commit")
	}
	if got := counters.Counter("staging_retries").Load(); got != 1 {
		t.Errorf("StagingRetries = %d, want 1", got)
	}
	if got := counters.Counter("staging_commits").Load(); got != 1 {
		t.Errorf("StagingCommits = %d, want 1", got)
	}
	if got := counters.Counter("staging_rollbacks").Load(); got != 0 {
		t.Errorf("StagingRollbacks = %d, want 0", got)
	}
}

// TestProbeRetriesTransientFault injects one transient probe fault: the
// probe must be retried (and succeed), leaving the stack selected.
func TestProbeRetriesTransientFault(t *testing.T) {
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	india := tb.ByName["india"]
	eng, counters := faultEngine()
	ctx := context.Background()
	desc, err := eng.Describe(ctx, art.Bytes, "cg.fault-probe-retry")
	if err != nil {
		t.Fatal(err)
	}

	var script fault.Script
	script.FailNext(fault.Transient, "probe")
	runner := &fault.FaultyRunner{
		Inner: experiment.NewSimProbeRunner(quietSim()),
		Inj:   &script,
	}

	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: india,
		Options: feam.EvalOptions{Runner: runner},
	})
	if err != nil {
		t.Fatal(err)
	}
	if script.Injected() != 1 {
		t.Fatalf("faults injected = %d, want 1", script.Injected())
	}
	if pred.Determinants[feam.DetMPIStack].Outcome != feam.Pass {
		t.Errorf("MPI determinant = %+v, want Pass after transient retry",
			pred.Determinants[feam.DetMPIStack])
	}
	if got := counters.Counter("probe_retries").Load(); got != 1 {
		t.Errorf("ProbeRetries = %d, want 1", got)
	}
}

// TestProbePermanentFaultFailsFast: a permanent probe fault must not be
// retried; the faulted candidate stack is condemned and evaluation moves
// on to the next candidate gracefully.
func TestProbePermanentFaultFailsFast(t *testing.T) {
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	india := tb.ByName["india"]
	eng, counters := faultEngine()
	ctx := context.Background()
	desc, err := eng.Describe(ctx, art.Bytes, "cg.fault-probe-permanent")
	if err != nil {
		t.Fatal(err)
	}

	var script fault.Script
	script.FailNext(fault.Permanent, "probe")
	runner := &fault.FaultyRunner{
		Inner: experiment.NewSimProbeRunner(quietSim()),
		Inj:   &script,
	}

	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: india,
		Options: feam.EvalOptions{Runner: runner},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := counters.Counter("probe_retries").Load(); got != 0 {
		t.Errorf("ProbeRetries = %d, want 0 (permanent faults fail fast)", got)
	}
	if script.Injected() != 1 {
		t.Fatalf("faults injected = %d, want 1", script.Injected())
	}
	// The first candidate was condemned by the fault, but the survey
	// carried on: either another candidate was selected or the MPI
	// determinant failed with the fault recorded — never an aborted run.
	if pred.Determinants[feam.DetMPIStack].Outcome == feam.Pass {
		if pred.SelectedStack == nil {
			t.Error("MPI determinant passed without a selected stack")
		}
	} else if !strings.Contains(pred.Determinants[feam.DetMPIStack].Detail, "permanent fault") {
		t.Errorf("MPI determinant detail lost the fault: %+v", pred.Determinants[feam.DetMPIStack])
	}
}

// TestTransitivePoisoningEvictsDependents removes libmpich.so.1.0 from
// the bundle: the app's direct need for it is unresolvable ("no copy in
// bundle"), and libmpichf90.so.1.0 — whose copy NEEDs libmpich.so.1.0 —
// must be evicted from the staging plan rather than staged as a copy the
// loader can never satisfy.
func TestTransitivePoisoningEvictsDependents(t *testing.T) {
	tb := sharedTestbed(t)
	desc, appBytes, bundle := rankBundle(t, tb, "cg.fault-poisoning")
	var kept []*feam.LibraryCopy
	for _, lc := range bundle.Libs {
		if strings.HasPrefix(lc.Name, "libmpich.so") {
			continue
		}
		kept = append(kept, lc)
	}
	if len(kept) == len(bundle.Libs) {
		t.Fatal("bundle carries no libmpich copy to remove")
	}
	bundle.Libs = kept

	india := tb.ByName["india"]
	eng, _ := faultEngine()
	ctx := context.Background()
	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: appBytes, Env: env, Site: india,
		Options: feam.EvalOptions{Bundle: bundle, Resolve: true, Runner: experimentRunner()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Ready {
		t.Error("prediction ready despite unresolvable MPI library")
	}
	if got := pred.UnresolvedLibs["libmpich.so.1.0"]; !strings.Contains(got, "no copy in bundle") {
		t.Errorf("libmpich.so.1.0 reason = %q", got)
	}
	if got := pred.UnresolvedLibs["libmpichf90.so.1.0"]; !strings.Contains(got, "depends on unresolvable libmpich.so.1.0") {
		t.Errorf("libmpichf90.so.1.0 reason = %q, want transitive eviction", got)
	}
	for _, lib := range pred.ResolvedLibs {
		if lib == "libmpichf90.so.1.0" {
			t.Error("poisoned dependent was staged anyway")
		}
	}
	// The independent library still resolves — poisoning is precise, not
	// a blanket failure.
	found := false
	for _, lib := range pred.ResolvedLibs {
		if lib == "libg2c.so.0" {
			found = true
		}
	}
	if !found {
		t.Errorf("libg2c.so.0 should still resolve; ResolvedLibs = %v, unresolved = %v",
			pred.ResolvedLibs, pred.UnresolvedLibs)
	}
}

// failingEvaluator reports DetMPIStack and always errors.
type failingEvaluator struct{}

func (failingEvaluator) Determinant() feam.Determinant { return feam.DetMPIStack }
func (failingEvaluator) Evaluate(ec *feam.EvalContext) error {
	return errors.New("evaluator infrastructure failure")
}

// TestRankSitesKeepsPartialTrailOnEvaluatorError: a failing evaluator must
// degrade the site to an assessment with Err AND the partial determinant
// trail of everything that ran before it — not a discarded prediction.
func TestRankSitesKeepsPartialTrailOnEvaluatorError(t *testing.T) {
	ctx := context.Background()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	eng, _ := faultEngine()
	desc, err := eng.Describe(ctx, art.Bytes, "cg.fault-partial-trail")
	if err != nil {
		t.Fatal(err)
	}
	evals := []feam.DeterminantEvaluator{feam.DefaultEvaluators()[0], failingEvaluator{}}
	sites := []*sitemodel.Site{tb.ByName["india"], tb.ByName["fir"]}
	ranked := eng.RankSites(ctx, desc, art.Bytes, sites,
		feam.EvalOptions{Evaluators: evals})
	for _, a := range ranked {
		if a.Err == nil {
			t.Errorf("%s: evaluator error lost", a.Site)
			continue
		}
		if a.Prediction == nil {
			t.Errorf("%s: partial prediction discarded", a.Site)
			continue
		}
		if a.Prediction.Ready {
			t.Errorf("%s: errored evaluation still claims ready", a.Site)
		}
		if a.Prediction.Determinants[feam.DetISA].Outcome != feam.Pass {
			t.Errorf("%s: partial trail lost the ISA pass: %+v",
				a.Site, a.Prediction.Determinants[feam.DetISA])
		}
	}
}

// TestRankSitesContainsPanickingRunner: a runner that panics must not take
// down the survey; the panicking site degrades to an Err assessment.
func TestRankSitesContainsPanickingRunner(t *testing.T) {
	ctx := context.Background()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	eng := feam.New(feam.WithWorkers(2))
	desc, err := eng.Describe(ctx, art.Bytes, "cg.fault-panic")
	if err != nil {
		t.Fatal(err)
	}
	panicky := newCountingRunner(experimentRunner())
	panicky.panics = true
	sites := []*sitemodel.Site{tb.ByName["india"], tb.ByName["blacklight"]}
	ranked := eng.RankSites(ctx, desc, art.Bytes, sites,
		feam.EvalOptions{Runner: panicky})
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	var sawPanic bool
	for _, a := range ranked {
		if a.Err != nil && strings.Contains(a.Err.Error(), "panicked") {
			sawPanic = true
		}
	}
	// india has mvapich2 stacks, so its probes run and panic there.
	if !sawPanic {
		t.Error("no assessment recorded the contained panic")
	}
}

// TestConcurrentEngineConfiguration: engine configuration is immutable,
// so concurrency pressure moved into the shared state layer — engines are
// constructed with differing options over one SiteRegistry while surveys
// run and invalidations race them. The data races this guards against are
// caught by `go test -race`.
func TestConcurrentEngineConfiguration(t *testing.T) {
	ctx := context.Background()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	shared := registry.New()
	eng := feam.New(feam.WithRegistry(shared))
	desc, err := eng.Describe(ctx, art.Bytes, "cg.fault-config-race")
	if err != nil {
		t.Fatal(err)
	}
	sites := []*sitemodel.Site{tb.ByName["india"], tb.ByName["fir"], tb.ByName["blacklight"]}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			// Fresh engines with varying configuration attach to the shared
			// registry mid-survey; invalidations race the rankers below.
			side := feam.New(
				feam.WithRegistry(shared),
				feam.WithWorkers(i%8+1),
				feam.WithRetryPolicy(fault.RetryPolicy{MaxAttempts: i%3 + 1, BaseDelay: time.Microsecond}),
			)
			_ = side.Workers()
			_ = side.RetryPolicy()
			shared.Invalidate(sites[i%len(sites)].Name)
		}
	}()
	for i := 0; i < 3; i++ {
		ranked := eng.RankSites(ctx, desc, art.Bytes, sites,
			feam.EvalOptions{Runner: experimentRunner()})
		if len(ranked) != len(sites) {
			t.Fatalf("ranked = %d", len(ranked))
		}
	}
	close(done)
	wg.Wait()
}
