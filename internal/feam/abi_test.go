package feam_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/feam"
	"feam/internal/obs"
)

// TestPredictWithABICheck drives the extended five-determinant ladder
// (selected per request through EvalOptions.Evaluators) end to end on a
// real compiled binary: the ABI determinant must run, attach the
// per-symbol report, and agree with the closure checker on a clean site.
func TestPredictWithABICheck(t *testing.T) {
	ctx := context.Background()
	tb := sharedTestbed(t)
	site := tb.ByName["india"]
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "cg")
	eng := feam.New()
	desc, err := eng.Describe(ctx, art.Bytes, "cg.abi")
	if err != nil {
		t.Fatal(err)
	}

	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Site: site,
		Options: feam.EvalOptions{Runner: experimentRunner(), Evaluators: feam.ABIEvaluators(true)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Fatalf("india should be ready: %v", pred.Reasons)
	}
	for _, d := range feam.Determinants() {
		if pred.Determinants[d].Outcome != feam.Pass {
			t.Errorf("%s = %v (%s), want Pass", d, pred.Determinants[d].Outcome, pred.Determinants[d].Detail)
		}
	}
	if pred.ABI == nil {
		t.Fatal("prediction carries no ABI report")
	}
	if !pred.ABI.OK() || pred.ABI.Total == 0 {
		t.Fatalf("ABI report not clean: %s", pred.ABI.Summary())
	}
	if pred.ABI.Agreement == nil || !pred.ABI.Agreement.Agree {
		t.Fatalf("agreement mode did not run or disagreed: %+v", pred.ABI.Agreement)
	}
	if got := eng.Metrics().Counter("abi_agree").Load(); got < 1 {
		t.Errorf("abi_agree counter = %d, want >= 1", got)
	}
	if got := eng.Metrics().Histogram(obs.OpABICheck).Count(); got < 1 {
		t.Errorf("abi_check histogram count = %d, want >= 1", got)
	}
	if got := eng.Metrics().Histogram(obs.OpSymIndex).Count(); got < 1 {
		t.Errorf("sym_index histogram count = %d, want >= 1", got)
	}
}

// countSpans tallies tracer spans by op.
func countSpans(eng *feam.Engine, op string) int {
	n := 0
	for _, sp := range eng.Tracer().Snapshot() {
		if sp.Op == op {
			n++
		}
	}
	return n
}

// TestSymbolIndexCachedAcrossChecks pins the KindSymIndex caching
// contract: one index build serves repeated ABI checks (no second
// OpSymIndex span), and any filesystem mutation invalidates it through
// the content-generation stamp.
func TestSymbolIndexCachedAcrossChecks(t *testing.T) {
	tb := sharedTestbed(t)
	site := tb.ByName["forge"]
	eng := feam.New()
	ctx := context.Background()
	bin := plainBinary()

	if _, err := eng.ABICheck(ctx, site, bin, "probe", false); err != nil {
		t.Fatal(err)
	}
	if got := countSpans(eng, obs.OpSymIndex); got != 1 {
		t.Fatalf("first check emitted %d sym_index spans, want 1", got)
	}
	if _, err := eng.ABICheck(ctx, site, bin, "probe", false); err != nil {
		t.Fatal(err)
	}
	if got := countSpans(eng, obs.OpSymIndex); got != 1 {
		t.Fatalf("cached check rebuilt the index: %d sym_index spans, want 1", got)
	}
	if got := countSpans(eng, obs.OpABICheck); got != 2 {
		t.Fatalf("abi_check spans = %d, want 2", got)
	}

	// Installing a new library bumps the vfs content generation; the next
	// check must rebuild and see the new exports.
	lib := elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeDyn,
		Soname:  "libfresh.so.1",
		Exports: []elfimg.ExportedSymbol{{Name: "fresh_symbol"}},
	})
	if err := site.FS().WriteFile("/lib64/libfresh.so.1", lib); err != nil {
		t.Fatal(err)
	}
	r, err := eng.ABICheck(ctx, site, bin, "probe", false)
	if err != nil {
		t.Fatal(err)
	}
	if got := countSpans(eng, obs.OpSymIndex); got != 2 {
		t.Fatalf("mutation did not invalidate the index: %d sym_index spans, want 2", got)
	}
	if r.Libraries == 0 {
		t.Fatal("rebuilt report indexes no libraries")
	}
}

// parentSink is an in-memory sink recording each ended span's op and
// parent.
type parentSink struct {
	mu      sync.Mutex
	parents map[string][]uint64
}

func (s *parentSink) SpanStarted(*obs.Span)          {}
func (s *parentSink) SpanEvent(*obs.Span, obs.Event) {}
func (s *parentSink) SpanEnded(sp *obs.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parents[sp.Op] = append(s.parents[sp.Op], sp.Parent)
}

// TestABICheckSpansJoinTheRequestTree: ABICheck parents the index build
// and the resolution pass under the span its context carries, so an
// /v1/abi request or a churn op explains itself as one span tree.
func TestABICheckSpansJoinTheRequestTree(t *testing.T) {
	tb := sharedTestbed(t)
	eng := feam.New()
	sink := &parentSink{parents: map[string][]uint64{}}
	eng.Tracer().AddSink(sink)
	root := eng.Tracer().Start("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := eng.ABICheck(ctx, tb.ByName["blacklight"], plainBinary(), "probe", false); err != nil {
		t.Fatal(err)
	}
	root.End(nil)
	for _, op := range []string{obs.OpSymIndex, obs.OpABICheck} {
		parents := sink.parents[op]
		if len(parents) != 1 || parents[0] != root.ID {
			t.Errorf("%s span parents = %v, want [%d] (the request span)", op, parents, root.ID)
		}
	}
}

// TestMPIStackABIStandardClass: a binary built against MVAPICH2 lands on
// blacklight, which installs only Open MPI. The paper's
// same-implementation ladder refuses; the ABI-standard class admits the
// foreign stack because it exports the MPI entry points the binary
// imports (arXiv:2308.11214).
func TestMPIStackABIStandardClass(t *testing.T) {
	ctx := context.Background()
	tb := sharedTestbed(t)
	site := tb.ByName["blacklight"]
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	eng := feam.New()
	desc, err := eng.Describe(ctx, art.Bytes, "cg.mvapich")
	if err != nil {
		t.Fatal(err)
	}

	// Paper-faithful ladder: no MVAPICH2 at blacklight, so the MPI
	// determinant fails.
	base, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Site: site,
		Options: feam.EvalOptions{Runner: experimentRunner()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Determinants[feam.DetMPIStack].Outcome != feam.Fail {
		t.Fatalf("default ladder accepted a foreign-implementation site: %+v",
			base.Determinants[feam.DetMPIStack])
	}

	// Extended ladder: the ABI-standard class admits Open MPI's exported
	// surface.
	ext, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Site: site,
		Options: feam.EvalOptions{
			Runner:     experimentRunner(),
			Evaluators: feam.ABIEvaluators(false),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ext.Determinants[feam.DetMPIStack]
	if got.Outcome != feam.Pass {
		t.Fatalf("ABI-standard class did not admit the foreign stack: %v (%s)", got.Outcome, got.Detail)
	}
	if !strings.Contains(got.Detail, "ABI-standard") {
		t.Errorf("detail does not name the compatibility class: %q", got.Detail)
	}
	if ext.SelectedStack == nil || ext.SelectedStack.Impl == desc.MPIImpl {
		t.Errorf("expected a foreign-implementation stack selection, got %+v", ext.SelectedStack)
	}
}
