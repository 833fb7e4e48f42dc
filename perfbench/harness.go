package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"feam/internal/feam"
	"feam/internal/obs"
)

// scale sizes a run. The full scale is the measured benchmark; smoke is a
// fast self-check of the same code paths.
type scale struct {
	// groupDiv shrinks every seeded group by this factor.
	groupDiv     int
	setupRepeats int
	warmup       time.Duration
	seqLen       int
}

var (
	fullScale  = scale{groupDiv: 1, setupRepeats: 3, warmup: 2 * time.Second, seqLen: 1 << 15}
	smokeScale = scale{groupDiv: 4, setupRepeats: 1, warmup: 200 * time.Millisecond, seqLen: 256}
)

// cause classifies a failed op.
type cause int

const (
	causeNone cause = iota
	causeStatus
	causeError
	causeWrong
	numCauses
)

var causeNames = [numCauses]string{"ok", "non-2xx", "error", "wrong verdict"}

// opResult is what one op reports back to the load loop.
type opResult struct {
	// latency is the on-clock time of the op.
	latency time.Duration
	// offClock is time the op spent outside the clock (site mutation).
	offClock time.Duration
	cause    cause
	detail   string
	// reqBytes and respBytes are the HTTP body sizes (predict ops only).
	reqBytes, respBytes int
}

// bench is one workload. generate runs first and alone; build and cold
// run setupRepeats times (each on a fresh program); op then runs from
// clients() goroutines, client c owning its own request sequence.
type bench interface {
	clients() int
	// generate makes every input from the seed — fleet spec, corpus,
	// request sequences, expected answers — and writes a canonical
	// rendering of them to digest.
	generate(seed int64, sc scale, digest hash.Hash) error
	// build constructs the program (fleet plus server or engine stack)
	// and reports how long the fleet and the stack took.
	build() (setupTimes, error)
	// cold fills every cache the timed ops hit.
	cold(ctx context.Context) error
	// op runs request i of client c. When tr is not nil (the traced
	// window), the op opens its root span from tr around the on-clock call
	// and passes it in the call's context, so the engine's spans nest
	// under it.
	op(ctx context.Context, tr *obs.Tracer, c, i int) opResult
	engine() *feam.Engine
	coalescer() feam.CoalescerStats
	// release drops the program so the next build starts from nothing.
	release()
}

var workloads = map[string]func() bench{
	"predict-upload": func() bench { return &uploadBench{} },
	"rank-fleet":     func() bench { return &rankBench{} },
	"site-churn":     func() bench { return &churnBench{} },
}

// window is the outcome of one timed window.
type window struct {
	elapsed   time.Duration // wall time minus off-clock time
	latencies []time.Duration
	attempted int
	failed    int
	causes    [numCauses]int
	firstFail string
	harness   time.Duration // load-loop time outside the ops and off the clock
	reqBytes  int
	respBytes int
	allocs    uint64
	gcCycles  uint32
	gcCPU     float64
	coalesced feam.CoalescerStats
	counters  map[string]int64
	spans     *spanSink
	// slices is the throughput of each tenth of the window; p50 is the
	// median of the tenths' median latencies.
	slices []float64
	p50    float64
}

// subWindows is how many slices a window's throughput and median latency
// are measured in; the reported values are medians over the slices, so a
// stall of the host or one GC cycle too many moves one slice, not the
// result.
const subWindows = 10

func (w *window) throughput() float64 { return median(w.slices) }

// runWindow drives the closed loop for d: every client sends its next
// request only after the previous answer arrived and was checked.
func runWindow(ctx context.Context, b bench, d time.Duration, sink *spanSink, start []int) *window {
	var tracer *obs.Tracer
	if sink != nil {
		tracer = b.engine().Tracer()
		tracer.AddSink(sink)
		defer sink.stop()
	}
	n := b.clients()
	type clientOut struct {
		lat []time.Duration
		// clock is the client's on-clock time when each op completed.
		clock    []time.Duration
		causes   [numCauses]int
		fail     string
		offClock time.Duration
		harness  time.Duration
		req      int
		resp     int
	}
	outs := make([]clientOut, n)
	before := b.engine().Metrics().Snapshot().Counters
	co0 := b.coalescer()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := gcCPUSeconds()

	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.lat = make([]time.Duration, 0, 1<<14)
			out.clock = make([]time.Duration, 0, 1<<14)
			i := start[c]
			for time.Now().Before(deadline) {
				iter := time.Now()
				r := b.op(ctx, tracer, c, i)
				i++
				out.lat = append(out.lat, r.latency)
				out.clock = append(out.clock, time.Since(t0)-out.offClock-r.offClock)
				out.causes[r.cause]++
				if r.cause != causeNone && out.fail == "" {
					out.fail = r.detail
				}
				out.offClock += r.offClock
				out.req += r.reqBytes
				out.resp += r.respBytes
				out.harness += time.Since(iter) - r.latency - r.offClock
			}
			start[c] = i
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)

	w := &window{spans: sink}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	w.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcCPU = (gcCPUSeconds() - cpu0) / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	var off time.Duration
	for c := range outs {
		o := &outs[c]
		w.latencies = append(w.latencies, o.lat...)
		for k := range o.causes {
			w.causes[k] += o.causes[k]
		}
		if w.firstFail == "" {
			w.firstFail = o.fail
		}
		off += o.offClock
		w.harness += o.harness
		w.reqBytes += o.req
		w.respBytes += o.resp
	}
	// Off-clock time pauses the clock of the client that spent it; the
	// window is the wall time the clients spent on the clock, averaged.
	w.elapsed = wall - off/time.Duration(n)
	w.attempted = len(w.latencies)
	w.failed = w.attempted - w.causes[causeNone]
	w.slices = make([]float64, subWindows)
	sliceLat := make([][]time.Duration, subWindows)
	for c := range outs {
		clock := outs[c].clock
		if len(clock) == 0 {
			continue
		}
		span := clock[len(clock)-1] / subWindows
		counts := make([]int, subWindows)
		for j, at := range clock {
			k := int(at / span)
			if k >= subWindows {
				k = subWindows - 1
			}
			counts[k]++
			sliceLat[k] = append(sliceLat[k], outs[c].lat[j])
		}
		for k, n := range counts {
			w.slices[k] += float64(n) / span.Seconds()
		}
	}
	p50s := make([]float64, 0, subWindows)
	for _, l := range sliceLat {
		if len(l) > 0 {
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
			p50s = append(p50s, millis(quantile(l, 0.5)))
		}
	}
	w.p50 = median(p50s)
	co1 := b.coalescer()
	w.coalesced = feam.CoalescerStats{Leads: co1.Leads - co0.Leads, Coalesced: co1.Coalesced - co0.Coalesced}
	after := b.engine().Metrics().Snapshot().Counters
	w.counters = map[string]int64{}
	for k, v := range after {
		w.counters[k] = v - before[k]
	}
	return w
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time estimate.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// setupTimes is one build-plus-cold-pass measurement. server.New builds
// its fleet inside the stack, so the predict workloads report the fleet
// build of the same spec measured while generating inputs, and it is not
// added again.
type setupTimes struct {
	fleet, stack, cold time.Duration
	fleetInStack       bool
}

func (s setupTimes) total() time.Duration {
	if s.fleetInStack {
		return s.stack + s.cold
	}
	return s.fleet + s.stack + s.cold
}

// run executes one benchmark run end to end and returns its result line.
func run(ctx context.Context, cfg config) (*result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	sc := fullScale
	if cfg.smoke {
		sc = smokeScale
	}
	b := mk()
	digest := sha256.New()
	t := time.Now()
	if err := b.generate(cfg.seed, sc, digest); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	logf("%s seed %d: inputs digest %s (generated in %.1fs)",
		cfg.workload, cfg.seed, hex.EncodeToString(digest.Sum(nil))[:16], time.Since(t).Seconds())

	var setups []setupTimes
	for i := 0; i < sc.setupRepeats; i++ {
		if i > 0 {
			b.release()
		}
		runtime.GC()
		st, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("building the program: %w", err)
		}
		t := time.Now()
		if err := b.cold(ctx); err != nil {
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		st.cold = time.Since(t)
		setups = append(setups, st)
	}
	// Setup allocates the whole fleet; a forced cycle keeps its garbage
	// from being collected inside the timed window.
	runtime.GC()

	start := make([]int, b.clients())
	if w := runWindow(ctx, b, sc.warmup, nil, start); w.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed, first: %s", w.failed, w.attempted, w.firstFail)
	}

	length := time.Duration(cfg.seconds * float64(time.Second))
	plain := runWindow(ctx, b, length, nil, start)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / 1e6
	report(cfg.workload, "untraced", plain)

	res := &result{Metrics: map[string]metric{}}
	// Clients own disjoint sites, so no request may ride another's
	// evaluation: one that did makes the work per op depend on timing.
	count := func(w *window) {
		res.Attempted += w.attempted
		res.Failed += w.failed
		if hit := w.coalesced.HitRate(); hit != 0 {
			logf("coalescer hit ratio %.4f, want 0: requests coalesced by chance", hit)
			res.Failed += int(w.coalesced.Coalesced)
		}
	}
	count(plain)
	if cfg.trace {
		traced := runWindow(ctx, b, length, newSpanSink(), start)
		report(cfg.workload, "traced", traced)
		count(traced)
		layerMetrics(res.Metrics, rootOps[cfg.workload], plain, traced, setups)
		if err := traced.spans.writeJSONL(cfg.traceDir, cfg.workload, cfg.seed); err != nil {
			logf("writing spans: %v", err)
		}
	} else {
		sort.Slice(plain.latencies, func(i, j int) bool { return plain.latencies[i] < plain.latencies[j] })
		n := len(plain.latencies)
		beyond := n - int(math.Ceil(0.99*float64(n)))
		logf("%d latency samples, %d beyond p99", n, beyond)
		// A smoke run is too short for a p99; it checks names and units.
		if beyond < 10 && !cfg.smoke {
			return nil, fmt.Errorf("invalid run: %d samples leave %d beyond p99, want at least 10", n, beyond)
		}
		totals := make([]float64, len(setups))
		for i, s := range setups {
			totals[i] = seconds(s.total())
		}
		res.Metrics["throughput_ops_s"] = metric{plain.throughput(), "ops/s"}
		res.Metrics["latency_p50_ms"] = metric{plain.p50, "ms"}
		res.Metrics["latency_p99_ms"] = metric{millis(quantile(plain.latencies, 0.99)), "ms"}
		res.Metrics["success_ratio"] = metric{1 - float64(plain.failed)/float64(plain.attempted), "ratio"}
		res.Metrics["setup_s"] = metric{median(totals), "s"}
		res.Metrics["live_heap_mb"] = metric{liveHeap, "MB"}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func report(name, kind string, w *window) {
	causes := ""
	for k := causeStatus; k < numCauses; k++ {
		causes += fmt.Sprintf(", %s %d", causeNames[k], w.causes[k])
	}
	logf("%s %s window: %d ops in %.2fs on the clock, median slice %.1f ops/s; %d failed (%s)",
		name, kind, w.attempted, w.elapsed.Seconds(), w.throughput(), w.failed, causes[2:])
	slices := ""
	for _, s := range w.slices {
		slices += fmt.Sprintf(" %.1f", s)
	}
	logf("throughput by slice (ops/s):%s; %d GC cycles, %.1f%% GC CPU", slices, w.gcCycles, 100*w.gcCPU)
	if w.firstFail != "" {
		logf("first failure: %s", w.firstFail)
	}
	keys := make([]string, 0, len(w.counters))
	for k, v := range w.counters {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	line := ""
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%d", k, w.counters[k])
	}
	logf("engine counters over the window:%s", line)
}
