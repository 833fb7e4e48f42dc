package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestFaultClassification(t *testing.T) {
	tr := New(Transient, "write", "/stage/lib.so")
	pe := New(Permanent, "write", "/stage/lib.so")
	if !IsTransient(tr) {
		t.Error("transient fault not classified transient")
	}
	if IsTransient(pe) {
		t.Error("permanent fault classified transient")
	}
	if IsTransient(errors.New("plain error")) {
		t.Error("plain error must be treated as permanent")
	}
	if IsTransient(nil) {
		t.Error("nil is not transient")
	}
	// Classification survives wrapping (vfs wraps injected faults in
	// PathError-style containers).
	wrapped := fmt.Errorf("write /stage/lib.so: %w", tr)
	if !IsTransient(wrapped) {
		t.Error("wrapped transient fault lost its class")
	}
	var f *Fault
	if !errors.As(wrapped, &f) || f.Op != "write" {
		t.Errorf("errors.As(wrapped) = %v", f)
	}
}

func TestPolicyDeterministicRate(t *testing.T) {
	run := func(seed int64) (faults, transients int) {
		p := &Policy{Rate: 0.3, TransientFraction: 0.5, Seed: seed}
		for i := 0; i < 1000; i++ {
			if err := p.Fail(context.Background(), "write", fmt.Sprintf("/f%d", i)); err != nil {
				faults++
				if IsTransient(err) {
					transients++
				}
			}
		}
		return
	}
	f1, t1 := run(7)
	f2, t2 := run(7)
	if f1 != f2 || t1 != t2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", f1, t1, f2, t2)
	}
	if f1 < 200 || f1 > 400 {
		t.Errorf("rate 0.3 produced %d/1000 faults", f1)
	}
	if t1 == 0 || t1 == f1 {
		t.Errorf("transient fraction 0.5 produced %d/%d transients", t1, f1)
	}
	f3, _ := run(8)
	if f3 == f1 {
		t.Logf("note: different seeds coincided (%d faults) — acceptable but unusual", f3)
	}
}

// TestPolicyLatencyHonorsCancellation: an injected latency must not
// outlive the caller — a cancelled Predict used to block for the full
// simulated slow-filesystem delay. A cancelled wait surfaces the ctx
// error and is not counted as an injected fault.
func TestPolicyLatencyHonorsCancellation(t *testing.T) {
	p := &Policy{Rate: 1, TransientFraction: 1, Latency: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := p.Fail(ctx, "write", "/x")
	if time.Since(start) > time.Second {
		t.Fatal("cancelled Fail still slept the injected latency")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	var f *Fault
	if errors.As(err, &f) {
		t.Error("cancellation was classified as an injected fault")
	}
	if p.Injected() != 0 {
		t.Errorf("Injected() = %d after cancelled wait", p.Injected())
	}
}

func TestPolicyOpFilterAndZeroValue(t *testing.T) {
	var zero Policy
	if err := zero.Fail(context.Background(), "write", "/x"); err != nil {
		t.Error("zero policy injected a fault")
	}
	p := &Policy{Rate: 1, TransientFraction: 1, Ops: []string{"setattr"}}
	if err := p.Fail(context.Background(), "write", "/x"); err != nil {
		t.Error("op filter did not exclude write")
	}
	if err := p.Fail(context.Background(), "setattr", "/x"); err == nil {
		t.Error("op filter excluded its own op")
	}
}

func TestScriptInjector(t *testing.T) {
	var s Script
	s.FailNth(Permanent, "write", 3)
	var errs []error
	for i := 0; i < 4; i++ {
		errs = append(errs, s.Fail(context.Background(), "write", fmt.Sprintf("/f%d", i)))
	}
	if errs[0] != nil || errs[1] != nil {
		t.Error("first two writes should pass")
	}
	if errs[2] == nil {
		t.Fatal("third write should fail")
	}
	if IsTransient(errs[2]) {
		t.Error("scripted permanent fault is transient")
	}
	if errs[3] != nil {
		t.Error("script exhausted but still failing")
	}
	if s.Injected() != 1 {
		t.Errorf("Injected = %d", s.Injected())
	}

	// Op matching: non-matching ops pass through without consuming.
	var s2 Script
	s2.FailNext(Transient, "probe")
	if err := s2.Fail(context.Background(), "write", "/x"); err != nil {
		t.Error("mismatched op consumed the script")
	}
	if err := s2.Fail(context.Background(), "probe", "site/stack"); err == nil || !IsTransient(err) {
		t.Errorf("probe fault = %v", err)
	}

	// FailNth passes are also op-scoped: interleaved unrelated operations
	// must not shift which matching operation fails.
	var s3 Script
	s3.FailNth(Permanent, "write", 2)
	if err := s3.Fail(context.Background(), "removeall", "/stage"); err != nil {
		t.Error("removeall consumed a write pass")
	}
	if err := s3.Fail(context.Background(), "write", "/f1"); err != nil {
		t.Error("first write should pass")
	}
	if err := s3.Fail(context.Background(), "setattr", "/f1"); err != nil {
		t.Error("setattr consumed the write fault")
	}
	if err := s3.Fail(context.Background(), "write", "/f2"); err == nil {
		t.Error("second write should fail")
	}
}

func TestRetryTransientOnly(t *testing.T) {
	ctx := context.Background()
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}

	// Transient failures are retried until success.
	calls := 0
	attempts, err := Retry(ctx, p, func() error {
		calls++
		if calls < 3 {
			return New(Transient, "probe", "x")
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Errorf("transient retry: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	// Permanent failures fail fast.
	calls = 0
	attempts, err = Retry(ctx, p, func() error {
		calls++
		return New(Permanent, "probe", "x")
	})
	if err == nil || attempts != 1 || calls != 1 {
		t.Errorf("permanent retry: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	// The budget caps persistent transients.
	calls = 0
	attempts, err = Retry(ctx, p, func() error {
		calls++
		return New(Transient, "probe", "x")
	})
	if err == nil || attempts != 4 || calls != 4 {
		t.Errorf("exhausted retry: attempts=%d calls=%d err=%v", attempts, calls, err)
	}

	// Zero policy = single attempt.
	calls = 0
	attempts, _ = Retry(ctx, RetryPolicy{}, func() error {
		calls++
		return New(Transient, "probe", "x")
	})
	if attempts != 1 || calls != 1 {
		t.Errorf("zero policy: attempts=%d calls=%d", attempts, calls)
	}
}

func TestRetryContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	attempts, err := Retry(ctx, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Hour}, func() error {
		calls++
		return New(Transient, "probe", "x")
	})
	// The first attempt runs; the backoff sleep observes cancellation and
	// stops the loop with the last transient error.
	if attempts != 1 || calls != 1 {
		t.Errorf("attempts=%d calls=%d", attempts, calls)
	}
	if !IsTransient(err) {
		t.Errorf("final err = %v", err)
	}
}

func TestBackoffShape(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond}
	want := []time.Duration{10, 20, 35, 35}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestClassifyDetail(t *testing.T) {
	cases := []struct {
		success   bool
		detail    string
		missing   bool
		transient bool
	}{
		{true, "clean exit", false, false},
		{false, "libmpich.so.1.0 => not found (needed by cg)", true, false},
		// A symbol-version error contains "not found" but is NOT a missing
		// library — the old substring check got this wrong.
		{false, "libc.so.6: version `GLIBC_2.12' not found (required by app)", false, false},
		{false, "communication timeout (transient overload)", false, true},
		{false, "mpd daemon spawn failure on allocated nodes", false, false},
	}
	for _, c := range cases {
		got := ClassifyDetail(c.success, c.detail)
		if got.MissingLib != c.missing || got.Transient != c.transient {
			t.Errorf("ClassifyDetail(%v, %q) = %+v", c.success, c.detail, got)
		}
	}
}

func TestRetryWithHookObservesEachBackoff(t *testing.T) {
	ctx := context.Background()
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Microsecond, MaxDelay: 25 * time.Microsecond}

	type call struct {
		attempt int
		backoff time.Duration
	}
	var calls []call
	hook := func(attempt int, backoff time.Duration) {
		calls = append(calls, call{attempt, backoff})
	}

	// Two transient failures, then success: the hook fires once per retry
	// decision with the failed attempt number and that attempt's backoff.
	n := 0
	attempts, err := RetryWithHook(ctx, p, hook, func() error {
		n++
		if n < 3 {
			return New(Transient, "probe", "x")
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("attempts=%d err=%v", attempts, err)
	}
	want := []call{{1, p.Backoff(1)}, {2, p.Backoff(2)}}
	if len(calls) != len(want) {
		t.Fatalf("hook calls = %+v, want %+v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("hook call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}

	// The hook must NOT fire for permanent failures or the final exhausted
	// attempt — only when a retry will actually happen.
	calls = nil
	if _, err := RetryWithHook(ctx, p, hook, func() error {
		return New(Permanent, "probe", "x")
	}); err == nil {
		t.Fatal("permanent fault did not surface")
	}
	if len(calls) != 0 {
		t.Errorf("hook fired %d times on a permanent fault", len(calls))
	}
	calls = nil
	attempts, _ = RetryWithHook(ctx, p, hook, func() error {
		return New(Transient, "probe", "x")
	})
	if attempts != 4 || len(calls) != 3 {
		t.Errorf("exhausted: attempts=%d hook calls=%d, want 4 and 3", attempts, len(calls))
	}
}
