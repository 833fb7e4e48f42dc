package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/scenario"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/vfs"
)

// engineStack is the fleet plus an engine built the way server.New builds
// one: tracer, metrics registry, sharded site registry and a store on an
// isolated state filesystem, with the deterministic probe simulator.
type engineStack struct {
	tb     *testbed.Testbed
	eng    *feam.Engine
	runner *experiment.SimProbeRunner
}

func buildEngineStack(spec scenario.FleetSpec, seed int64) (*engineStack, setupTimes, error) {
	var times setupTimes
	t := time.Now()
	tb, err := scenario.BuildFleet(spec)
	if err != nil {
		return nil, times, err
	}
	times.fleet = time.Since(t)
	t = time.Now()
	metricsReg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	st, err := store.Open(vfs.New(), "/state", store.WithMetrics(metricsReg), store.WithTracer(tracer))
	if err != nil {
		return nil, times, err
	}
	eng := feam.New(
		feam.WithTracer(tracer),
		feam.WithMetrics(metricsReg),
		feam.WithRegistry(registry.New(registry.WithMetrics(metricsReg))),
		feam.WithStore(st),
	)
	sim := execsim.NewSimulator(seed)
	sim.TransientRate = 0
	times.stack = time.Since(t)
	return &engineStack{tb: tb, eng: eng, runner: experiment.NewSimProbeRunner(sim)}, times, nil
}

// rankBench is one client ranking the whole fleet for a seeded corpus
// binary per op, with hello-world probes: the only workload where one op
// fans out over the engine's worker pool and many site locks.
type rankBench struct {
	spec  scenario.FleetSpec
	seed  int64
	bins  []*binary
	sites map[string]int
	want  [][]verdict
	seq   []int

	stack *engineStack
	descs []*feam.BinaryDescription
}

func (r *rankBench) clients() int { return 1 }

func (r *rankBench) generate(seed int64, sc scale, digest hash.Hash) error {
	r.seed = seed
	r.spec = fleetSpec(seed, sc.groupDiv)
	fmt.Fprintf(digest, "fleet %+v\n", r.spec)
	bins, err := compileCorpus()
	if err != nil {
		return err
	}
	r.bins = bins
	tb, err := scenario.BuildFleet(r.spec)
	if err != nil {
		return fmt.Errorf("building the reference fleet: %w", err)
	}
	r.sites = map[string]int{}
	for si, s := range tb.Sites {
		r.sites[s.Name] = si
	}
	o := newOracle()
	r.want = make([][]verdict, len(bins))
	for bi, b := range bins {
		fmt.Fprintf(digest, "binary %s %x\n", b.name, sha256.Sum256(b.image))
		r.want[bi] = make([]verdict, len(tb.Sites))
		for si, s := range tb.Sites {
			if r.want[bi][si], err = o.verdict(s, b, true); err != nil {
				return err
			}
			fmt.Fprintf(digest, "want %d %d %s\n", bi, si, r.want[bi][si])
		}
	}
	draw := newDeck(rand.New(rand.NewSource(seed)), shares(bins))
	r.seq = make([]int, sc.seqLen)
	for i := range r.seq {
		r.seq[i] = draw.draw()
		fmt.Fprintf(digest, "req %d\n", r.seq[i])
	}
	return nil
}

func (r *rankBench) build() (setupTimes, error) {
	st, times, err := buildEngineStack(r.spec, r.seed)
	r.stack = st
	return times, err
}

// cold describes every corpus binary and ranks the fleet for each once,
// filling descriptions, surveys and shard-root caches.
func (r *rankBench) cold(ctx context.Context) error {
	r.descs = r.descs[:0]
	for _, b := range r.bins {
		d, err := r.stack.eng.Describe(ctx, b.image, b.name)
		if err != nil {
			return err
		}
		r.descs = append(r.descs, d)
	}
	for bi := range r.bins {
		if res := r.rank(ctx, nil, bi); res.cause != causeNone {
			return fmt.Errorf("%s", res.detail)
		}
	}
	return nil
}

func (r *rankBench) op(ctx context.Context, tr *obs.Tracer, _, i int) opResult {
	return r.rank(ctx, tr, r.seq[i%len(r.seq)])
}

func (r *rankBench) rank(ctx context.Context, tr *obs.Tracer, bi int) opResult {
	b := r.bins[bi]
	opts := feam.EvalOptions{Runner: r.stack.runner}
	sp := tr.Start(rootRank)
	t := time.Now()
	got := r.stack.eng.RankSites(obs.ContextWithSpan(ctx, sp), r.descs[bi], b.image, r.stack.tb.Sites, opts)
	res := opResult{latency: time.Since(t)}
	sp.End(nil)
	for _, a := range got {
		if a.Err != nil {
			res.cause, res.detail = causeError, fmt.Sprintf("%s at %s: %v", b.name, a.Site, a.Err)
			return res
		}
		if v, want := verdictOf(a.Prediction), r.want[bi][r.sites[a.Site]]; v != want {
			res.cause, res.detail = causeWrong, fmt.Sprintf("%s at %s: got %s, want %s", b.name, a.Site, v, want)
			return res
		}
	}
	return res
}

func (r *rankBench) engine() *feam.Engine { return r.stack.eng }

func (r *rankBench) coalescer() feam.CoalescerStats { return feam.CoalescerStats{} }

func (r *rankBench) release() { r.stack = nil }
