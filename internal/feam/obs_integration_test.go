package feam_test

import (
	"context"
	"errors"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/fault"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
)

// plainBinary builds a minimal dynamically linked executable that the edge
// site (minimalSite) can satisfy: one libc dependency, no MPI.
func plainBinary() []byte {
	return elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
		Interp: "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{"libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.3.4"}},
		},
	})
}

// TestTracingEmitsDeterminantSpans drives the concurrent ranking path and
// checks the issue's acceptance shape: at least one determinant span per
// site, each parented to that site's evaluate span, which in turn parents
// to the assess span the fan-out opened.
func TestTracingEmitsDeterminantSpans(t *testing.T) {
	ctx := context.Background()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	sites := []*sitemodel.Site{tb.ByName["ranger"], tb.ByName["india"], tb.ByName["blacklight"]}
	eng := feam.New(feam.WithWorkers(len(sites)))
	desc, err := eng.Describe(ctx, art.Bytes, "cg.tracing")
	if err != nil {
		t.Fatal(err)
	}
	eng.RankSites(ctx, desc, art.Bytes, sites,
		feam.EvalOptions{Runner: experimentRunner()})

	spans := eng.Tracer().Snapshot()
	byID := make(map[uint64]obs.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	detPerSite := map[string]int{}
	for _, sp := range spans {
		if sp.Op != obs.OpDeterminant {
			continue
		}
		detPerSite[sp.Site]++
		ev, ok := byID[sp.Parent]
		if !ok || ev.Op != obs.OpEvaluate {
			t.Fatalf("determinant span %q at %s: parent is %+v, want an evaluate span", sp.Determinant, sp.Site, ev)
		}
		as, ok := byID[ev.Parent]
		if !ok || as.Op != obs.OpAssess || as.Site != sp.Site {
			t.Fatalf("evaluate span at %s: parent is %+v, want the site's assess span", sp.Site, as)
		}
	}
	for _, s := range sites {
		if detPerSite[s.Name] < 1 {
			t.Errorf("site %s: %d determinant spans, want >= 1", s.Name, detPerSite[s.Name])
		}
	}
	// Every site passes ISA and C library before diverging, so each should
	// carry at least two determinant spans.
	for _, s := range sites {
		if detPerSite[s.Name] < 2 {
			t.Errorf("site %s: only %d determinant spans", s.Name, detPerSite[s.Name])
		}
	}
}

// TestSourcePhaseTracingStaysInEngine: the source phase describes the
// binary and then every library copy it gathers through the calling
// engine (§V.A's recursive description), so each description is a span
// in that engine's tracer under the caller's span and a miss in its
// counters, and a repeat gather is served from its registry.
func TestSourcePhaseTracingStaysInEngine(t *testing.T) {
	tb := sharedTestbed(t)
	ranger := tb.ByName["ranger"]
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	path := "/home/user/cg.source-tracing"
	if err := ranger.FS().WriteFile(path, art.Bytes); err != nil {
		t.Fatal(err)
	}
	snap := ranger.SnapshotEnv()
	defer ranger.RestoreEnv(snap)
	if err := testbed.ActivateStack(ranger, "mvapich2-1.2-gnu"); err != nil {
		t.Fatal(err)
	}

	eng := feam.New()
	root := eng.Tracer().Start("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	bundle, _, err := eng.RunSourcePhase(ctx, testConfig("source", path), ranger, experimentRunner())
	root.End(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Libs) == 0 {
		t.Fatal("source phase gathered no libraries")
	}
	want := 1 + len(bundle.Libs)
	if got := countSpans(eng, obs.OpDescribe); got != want {
		t.Errorf("describe spans = %d, want %d (the binary and each gathered copy)", got, want)
	}
	spans := eng.Tracer().Snapshot()
	parent := make(map[uint64]uint64, len(spans))
	for _, sp := range spans {
		parent[sp.ID] = sp.Parent
	}
	for _, sp := range spans {
		id := sp.ID
		for steps := 0; id != root.ID && steps < len(spans); steps++ {
			id = parent[id]
		}
		if id != root.ID {
			t.Errorf("%s span %d has no parent chain to the request span", sp.Op, sp.ID)
		}
	}
	misses := eng.Metrics().Counter("bdc_misses")
	if got := misses.Load(); got != int64(want) {
		t.Errorf("bdc_misses = %d, want %d", got, want)
	}

	if _, err := eng.GatherLibraries(ctx, ranger, art.Bytes, path); err != nil {
		t.Fatal(err)
	}
	if got := misses.Load(); got != int64(want) {
		t.Errorf("repeat gather: bdc_misses = %d, want %d (every copy cached)", got, want)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.GatherLibraries(cancelled, ranger, art.Bytes, path); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled gather: err = %v, want context.Canceled", err)
	}
}

// TestHistogramsNoLostSamplesUnderRankSitesParallel: concurrent ranking
// rounds must account every evaluation in the evaluate histogram — the
// lock-free recording path may not drop samples (run under -race by the
// obs make target).
func TestHistogramsNoLostSamplesUnderRankSitesParallel(t *testing.T) {
	ctx := context.Background()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	sites := []*sitemodel.Site{tb.ByName["ranger"], tb.ByName["india"], tb.ByName["blacklight"], tb.ByName["forge"]}
	eng := feam.New(feam.WithWorkers(4))
	desc, err := eng.Describe(ctx, art.Bytes, "cg.histo")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		eng.RankSites(ctx, desc, art.Bytes, sites,
			feam.EvalOptions{Runner: experimentRunner()})
	}
	want := uint64(rounds * len(sites))
	if got := eng.Metrics().Histogram(obs.OpEvaluate).Count(); got != want {
		t.Fatalf("evaluate histogram count = %d, want %d", got, want)
	}
	if got := eng.Metrics().Counter("evaluations").Load(); got != int64(want) {
		t.Fatalf("evaluations counter = %d, want %d", got, want)
	}
	if got := eng.Metrics().Histogram(obs.OpAssess).Count(); got != want {
		t.Fatalf("assess histogram count = %d, want %d", got, want)
	}
}

// explodingEvaluator aborts the ladder with an infrastructure error.
type explodingEvaluator struct{}

func (explodingEvaluator) Determinant() feam.Determinant { return feam.DetISA }
func (explodingEvaluator) Evaluate(*feam.EvalContext) error {
	return errors.New("probe infrastructure exploded")
}

func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()

	// Unsatisfiable requests wrap ErrNoEnvironment.
	if _, err := eng.Predict(ctx, feam.EvalRequest{}); !errors.Is(err, feam.ErrNoEnvironment) {
		t.Errorf("empty request: err = %v", err)
	}
	site := minimalSite(t)
	if _, err := eng.Predict(ctx, feam.EvalRequest{Site: site}); !errors.Is(err, feam.ErrNoEnvironment) {
		t.Errorf("no binary: err = %v", err)
	}

	// A site whose survey surface is gone wraps ErrSiteUnavailable.
	broken := minimalSite(t)
	if err := broken.FS().Remove("/proc/sys/kernel/uname"); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Predict(ctx, feam.EvalRequest{Binary: plainBinary(), BinaryName: "app", Site: broken})
	if !errors.Is(err, feam.ErrSiteUnavailable) {
		t.Errorf("broken survey: err = %v", err)
	}
	// The same classification surfaces through the ranking fan-out.
	desc, derr := eng.Describe(ctx, plainBinary(), "app.sentinel")
	if derr != nil {
		t.Fatal(derr)
	}
	ranked := eng.RankSites(ctx, desc, plainBinary(), []*sitemodel.Site{broken}, feam.EvalOptions{})
	if len(ranked) != 1 || !errors.Is(ranked[0].Err, feam.ErrSiteUnavailable) {
		t.Errorf("ranked broken site: %+v", ranked)
	}

	// An evaluator infrastructure error wraps ErrProbeFailed and still
	// returns the partial prediction trail.
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Binary: plainBinary(), BinaryName: "app", Site: site,
		Options: feam.EvalOptions{Evaluators: []feam.DeterminantEvaluator{explodingEvaluator{}}},
	})
	if !errors.Is(err, feam.ErrProbeFailed) {
		t.Errorf("exploding evaluator: err = %v", err)
	}
	if pred == nil || pred.Ready {
		t.Errorf("partial prediction = %+v", pred)
	}

	// The sentinels are mutually exclusive classifications.
	if errors.Is(err, feam.ErrSiteUnavailable) || errors.Is(err, feam.ErrNoEnvironment) {
		t.Errorf("probe failure also matches other sentinels: %v", err)
	}
}

// TestPredictRequestForms: a request may carry the binary as a
// description or as raw bytes, and the environment surveyed or not; every
// form must produce the same verdict and determinant trail.
func TestPredictRequestForms(t *testing.T) {
	ctx := context.Background()
	site := minimalSite(t)
	img := plainBinary()
	eng := feam.New()
	desc, err := eng.Describe(ctx, img, "app.forms")
	if err != nil {
		t.Fatal(err)
	}
	env, err := eng.Discover(ctx, site)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Predict(ctx, feam.EvalRequest{Desc: desc, Binary: img, Env: env, Site: site})
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]feam.EvalRequest{
		"bytes":    {Binary: img, BinaryName: "app.forms", Env: env, Site: site},
		"surveyed": {Desc: desc, Binary: img, Site: site},
	} {
		got, err := eng.Predict(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Ready != want.Ready {
			t.Errorf("%s: Ready = %v, want %v", name, got.Ready, want.Ready)
		}
		for _, d := range feam.Determinants() {
			if got.Determinants[d] != want.Determinants[d] {
				t.Errorf("%s: %s = %+v, want %+v", name, d, got.Determinants[d], want.Determinants[d])
			}
		}
	}
}

// TestFunctionalOptionsWireTheEngine: every option must land on the
// constructed engine — shared tracer/registry instances, the worker width,
// and exactly one registry sink feeding span-derived counters, however
// many engines share the tracer and metrics — and a per-request ladder is
// honored.
func TestFunctionalOptionsWireTheEngine(t *testing.T) {
	ctx := context.Background()
	tr := obs.NewTracer(64)
	reg := obs.NewRegistry()
	shared := registry.New(registry.WithMetrics(reg))
	eng := feam.New(
		feam.WithTracer(tr),
		feam.WithMetrics(reg),
		feam.WithRegistry(shared),
		feam.WithWorkers(2),
		feam.WithRetryPolicy(fault.RetryPolicy{MaxAttempts: 1}),
	)
	if eng.Tracer() != tr {
		t.Fatal("WithTracer instance not adopted")
	}
	if eng.Metrics() != reg {
		t.Fatal("WithMetrics instance not adopted")
	}
	if eng.Registry() != feam.SiteRegistry(shared) {
		t.Fatal("WithRegistry site-registry instance not adopted")
	}
	if eng.SiteLock("wiring-probe") != shared.SiteLock("wiring-probe") {
		t.Fatal("engine site locks must come from the shared registry")
	}
	if eng.Workers() != 2 {
		t.Fatalf("Workers = %d, want 2", eng.Workers())
	}
	// A second engine over the same tracer and metrics registry (what a
	// restart builds) must not attach a second registry sink: each span
	// still counts once.
	_ = feam.New(feam.WithTracer(tr), feam.WithMetrics(reg))

	site := minimalSite(t)
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Binary: plainBinary(), BinaryName: "app.opts", Site: site,
		Options: feam.EvalOptions{Evaluators: feam.DefaultEvaluators()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Fatalf("prediction = %+v", pred)
	}
	if got := reg.Counter("evaluations").Load(); got != 1 {
		t.Errorf("evaluations counter = %d, want 1 (registry sink missing or attached twice)", got)
	}
	if got := reg.Histogram(obs.OpEvaluate).Count(); got != 1 {
		t.Errorf("registry evaluate count = %d, want 1 (registry sink missing or attached twice)", got)
	}
	if tr.Total() == 0 {
		t.Error("tracer saw no spans")
	}

	// A zero-option engine still comes fully wired (private layers).
	plain := feam.New()
	if plain.Tracer() == nil || plain.Metrics() == nil || plain.Registry() == nil {
		t.Error("zero-option engine missing tracer, metrics, or site registry")
	}
	// The shared registry saw the evaluated site's survey traffic.
	if st := shared.Stats(); st.Entries[feam.KindSurvey] == 0 || st.Sites == 0 {
		t.Errorf("shared registry stats = %+v, want surveyed site recorded", st)
	}
}
