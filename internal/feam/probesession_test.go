package feam_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"feam/internal/fault"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
)

// countingRunner is a fault.Runner that records every probe session it
// opens and every Close, keyed by "site/stack". Probes run in the inner
// runner's session, or panic when panics is set. Safe for the concurrent
// sessions RankSites opens.
type countingRunner struct {
	inner  fault.Runner
	panics bool

	mu     sync.Mutex
	begins map[string]int
	closes map[string]int
}

func newCountingRunner(inner fault.Runner) *countingRunner {
	return &countingRunner{inner: inner, begins: map[string]int{}, closes: map[string]int{}}
}

func (r *countingRunner) BeginProbeBatch(ctx context.Context, site *sitemodel.Site, stackKey string) fault.ProbeBatch {
	key := site.Name + "/" + stackKey
	r.mu.Lock()
	r.begins[key]++
	r.mu.Unlock()
	return &countingBatch{r: r, key: key, inner: r.inner.BeginProbeBatch(ctx, site, stackKey)}
}

// sessions returns copies of the begin and close tallies.
func (r *countingRunner) sessions() (begins, closes map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	begins, closes = map[string]int{}, map[string]int{}
	for k, n := range r.begins {
		begins[k] = n
	}
	for k, n := range r.closes {
		closes[k] = n
	}
	return begins, closes
}

type countingBatch struct {
	r     *countingRunner
	key   string
	inner fault.ProbeBatch
}

func (b *countingBatch) RunProbe(ctx context.Context, art *toolchain.Artifact, extraLibDirs []string) fault.ProbeResult {
	if b.r.panics {
		panic("probe exploded")
	}
	return b.inner.RunProbe(ctx, art, extraLibDirs)
}

func (b *countingBatch) Close() {
	b.r.mu.Lock()
	b.r.closes[b.key]++
	b.r.mu.Unlock()
	b.inner.Close()
}

// assertOneClosePerSession fails unless every opened session was opened
// once and closed exactly once.
func assertOneClosePerSession(t *testing.T, r *countingRunner) {
	t.Helper()
	begins, closes := r.sessions()
	for key, n := range begins {
		if n != 1 {
			t.Errorf("%s: %d sessions opened, want 1", key, n)
		}
		if closes[key] != n {
			t.Errorf("%s: %d sessions closed %d times, want once each", key, n, closes[key])
		}
	}
	for key := range closes {
		if begins[key] == 0 {
			t.Errorf("%s: closed a session that was never opened", key)
		}
	}
}

// probedStacks returns the "site/stack" keys of every probe span.
func probedStacks(eng *feam.Engine) map[string]bool {
	out := map[string]bool{}
	for _, sp := range eng.Tracer().Snapshot() {
		if sp.Op == obs.OpProbe {
			out[sp.Site+"/"+sp.Attrs[obs.AttrStack]] = true
		}
	}
	return out
}

// TestProbeSessionContract pins how the engine drives probe sessions: one
// session per tested candidate stack, shared by that candidate's probes
// and closed exactly once — also when its native hello world fails — and
// the site environment left as it was found.
func TestProbeSessionContract(t *testing.T) {
	tb := sharedTestbed(t)
	ctx := context.Background()
	desc, appBytes, bundle := rankBundle(t, tb, "cg.probe-session")
	broken := compileAt(t, tb, "india", "mvapich2-1.7a2-intel", "is")
	brokenDesc, err := feam.New().Describe(ctx, broken.Bytes, "is.probe-session")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		site   string
		desc   *feam.BinaryDescription
		bin    []byte
		bundle *feam.Bundle
		detail string // substring of the MPI determinant detail
	}{
		// Extended prediction: the native and source hello worlds share
		// the selected stack's session, and staging follows.
		{"extended", "india", desc, appBytes, bundle, "native and source hello worlds pass"},
		// forge's only MVAPICH2 stack is misconfigured: the native hello
		// world fails and its session must still be closed.
		{"failed-native-hello", "forge", brokenDesc, broken.Bytes, nil, "native hello world failed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			site := tb.ByName[c.site]
			eng := feam.New()
			runner := newCountingRunner(experimentRunner())
			env, err := eng.Discover(ctx, site)
			if err != nil {
				t.Fatal(err)
			}
			before := site.EnvFingerprint()
			pred, err := eng.Predict(ctx, feam.EvalRequest{
				Desc: c.desc, Binary: c.bin, Env: env, Site: site,
				Options: feam.EvalOptions{Bundle: c.bundle, Resolve: c.bundle != nil, Runner: runner},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := pred.Determinants[feam.DetMPIStack].Detail; !strings.Contains(got, c.detail) {
				t.Fatalf("MPI determinant detail = %q, want %q", got, c.detail)
			}
			if after := site.EnvFingerprint(); after != before {
				t.Errorf("site environment changed by Predict: fingerprint %x -> %x", before, after)
			}
			begins, _ := runner.sessions()
			if len(begins) != 1 {
				t.Errorf("opened sessions for %v, want one candidate tested", begins)
			}
			probed := probedStacks(eng)
			for key := range begins {
				if !probed[key] {
					t.Errorf("session %s opened but never probed", key)
				}
			}
			for key := range probed {
				if begins[key] == 0 {
					t.Errorf("probe on %s ran outside any session", key)
				}
			}
			assertOneClosePerSession(t, runner)
		})
	}
}

// TestProbeSessionClosedAfterPanic: a probe that panics under RankSites is
// contained to its site's assessment, and the session it ran in is still
// closed exactly once, restoring the site environment.
func TestProbeSessionClosedAfterPanic(t *testing.T) {
	ctx := context.Background()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	eng := feam.New(feam.WithWorkers(2))
	desc, err := eng.Describe(ctx, art.Bytes, "cg.probe-session-panic")
	if err != nil {
		t.Fatal(err)
	}
	sites := []*sitemodel.Site{tb.ByName["india"], tb.ByName["fir"]}
	before := map[string]uint64{}
	for _, s := range sites {
		before[s.Name] = s.EnvFingerprint()
	}
	runner := newCountingRunner(experimentRunner())
	runner.panics = true
	ranked := eng.RankSites(ctx, desc, art.Bytes, sites, feam.EvalOptions{Runner: runner})
	panicked := 0
	for _, a := range ranked {
		if a.Err != nil && strings.Contains(a.Err.Error(), "panicked") {
			panicked++
		}
	}
	begins, _ := runner.sessions()
	if panicked == 0 || len(begins) != panicked {
		t.Fatalf("%d assessments panicked over sessions %v, want one session per panicked site", panicked, begins)
	}
	assertOneClosePerSession(t, runner)
	for _, s := range sites {
		if got := s.EnvFingerprint(); got != before[s.Name] {
			t.Errorf("%s: environment not restored after the panic", s.Name)
		}
	}
}

// TestSourcePhaseProbeSession: the source phase runs its hello world in a
// one-probe session of its own.
func TestSourcePhaseProbeSession(t *testing.T) {
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	ranger := tb.ByName["ranger"]
	path := "/home/user/cg.probe-session-source"
	if err := ranger.FS().WriteFile(path, art.Bytes); err != nil {
		t.Fatal(err)
	}
	snap := ranger.SnapshotEnv()
	defer ranger.RestoreEnv(snap)
	if err := testbed.ActivateStack(ranger, "mvapich2-1.2-gnu"); err != nil {
		t.Fatal(err)
	}
	runner := newCountingRunner(experimentRunner())
	eng := feam.New()
	bundle, _, err := eng.RunSourcePhase(context.Background(), testConfig("source", path), ranger, runner)
	if err != nil {
		t.Fatal(err)
	}
	if bundle.MPIHello == nil {
		t.Fatal("source phase compiled no hello world")
	}
	begins, _ := runner.sessions()
	if len(begins) != 1 || begins["ranger/mvapich2-1.2-gnu"] != 1 {
		t.Errorf("source phase sessions = %v, want one on ranger/mvapich2-1.2-gnu", begins)
	}
	assertOneClosePerSession(t, runner)
	if n := len(probedStacks(eng)); n != 1 {
		t.Errorf("source phase probed %d stacks, want 1", n)
	}
}
