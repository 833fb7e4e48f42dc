package feam_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"feam/internal/feam"
	"feam/internal/obs"
)

// gateEvaluator blocks evaluation until the gate is released, holding a
// flight open so the test can attach followers deterministically.
type gateEvaluator struct {
	gate    <-chan struct{}
	entered chan struct{} // closed when the first evaluation starts
	once    sync.Once
}

func (g *gateEvaluator) Determinant() feam.Determinant { return feam.DetISA }
func (g *gateEvaluator) Evaluate(ec *feam.EvalContext) error {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	ec.Pred.Determinants[feam.DetISA] = feam.DeterminantResult{Outcome: feam.Pass}
	return nil
}

// TestCoalescerDeduplicatesConcurrentIdenticalPredicts: K identical
// concurrent predictions must run exactly one engine evaluation (and one
// site survey) — the followers ride the leader's flight and share its
// result.
func TestCoalescerDeduplicatesConcurrentIdenticalPredicts(t *testing.T) {
	tb := sharedTestbed(t)
	site := tb.ByName["india"]
	img := plainBinary()

	eng := feam.New()
	co := feam.NewCoalescer(eng)
	gate := make(chan struct{})
	ev := &gateEvaluator{gate: gate, entered: make(chan struct{})}
	req := feam.EvalRequest{
		Binary: img, BinaryName: "app.coalesce", Site: site,
		Options: feam.EvalOptions{Evaluators: []feam.DeterminantEvaluator{ev}},
	}

	const K = 8
	var wg sync.WaitGroup
	preds := make([]*feam.Prediction, K)
	flags := make([]bool, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], flags[i], errs[i] = co.Predict(context.Background(), req)
		}(i)
	}

	// Wait for the leader to enter evaluation, then for every other
	// request to attach to its flight, before letting it finish.
	<-ev.entered
	deadline := time.Now().Add(5 * time.Second)
	for co.Stats().Coalesced < K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", co.Stats().Coalesced, K-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	leaders := 0
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if preds[i] != preds[0] {
			t.Errorf("request %d got a different prediction object", i)
		}
		if !flags[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want 1", leaders)
	}
	st := co.Stats()
	if st.Leads != 1 || st.Coalesced != K-1 {
		t.Errorf("stats = %+v, want 1 lead / %d coalesced", st, K-1)
	}
	if hr := st.HitRate(); hr <= 0.8 {
		t.Errorf("hit rate = %.2f, want > 0.8", hr)
	}
	// Exactly one evaluation and one survey ran — counted by the metrics
	// registry, which unlike the trace ring never drops samples.
	if got := eng.Metrics().Counter("evaluations").Load(); got != 1 {
		t.Errorf("evaluations = %d, want 1", got)
	}
	if got := eng.Metrics().Histogram(obs.OpDiscover).Count(); got != 1 {
		t.Errorf("discover spans = %d, want 1", got)
	}
}

// TestCoalescerFollowerHonorsOwnContext: a follower abandoning a slow
// flight returns promptly with its own ctx error; the leader is
// unaffected.
func TestCoalescerFollowerHonorsOwnContext(t *testing.T) {
	tb := sharedTestbed(t)
	site := tb.ByName["india"]
	img := plainBinary()

	eng := feam.New()
	co := feam.NewCoalescer(eng)
	gate := make(chan struct{})
	ev := &gateEvaluator{gate: gate, entered: make(chan struct{})}
	req := feam.EvalRequest{
		Binary: img, BinaryName: "app.coalesce2", Site: site,
		Options: feam.EvalOptions{Evaluators: []feam.DeterminantEvaluator{ev}},
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := co.Predict(context.Background(), req)
		leaderDone <- err
	}()
	<-ev.entered

	fctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, coalesced, err := co.Predict(fctx, req)
		if !coalesced {
			t.Error("second request did not coalesce")
		}
		followerDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for co.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower still waiting on the flight")
	}

	close(gate)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader err = %v", err)
	}
}

// TestCoalescerDescribesBinaryOnce: a request that carries only Binary is
// described exactly once, and before its flight takes the site lock, so
// the binary is hashed once and never under the lock.
func TestCoalescerDescribesBinaryOnce(t *testing.T) {
	tb := sharedTestbed(t)
	site := tb.ByName["india"]
	eng := feam.New()
	co := feam.NewCoalescer(eng)
	describes := eng.Metrics().Histogram(obs.OpDescribe)

	lock := eng.SiteLock(site.Name)
	lock.Lock()
	done := make(chan error, 1)
	go func() {
		_, _, err := co.Predict(context.Background(), feam.EvalRequest{
			Binary: plainBinary(), BinaryName: "app.describe-once", Site: site,
		})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for describes.Count() == 0 {
		if time.Now().After(deadline) {
			lock.Unlock()
			t.Fatal("the request was not described while the site lock was held")
		}
		time.Sleep(time.Millisecond)
	}
	lock.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := describes.Count(); got != 1 {
		t.Errorf("describe spans = %d, want 1", got)
	}
}
