package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"feam/internal/feam"
	"feam/internal/obs"
)

// Root span operations: each op wraps its on-clock call in one. Only
// predict ops cross the serving layer.
const (
	rootHTTP  = "loadgen.http"
	rootRank  = "loadgen.rank"
	rootChurn = "loadgen.churn"
)

var rootOps = map[string]string{
	"predict-upload": rootHTTP,
	"rank-fleet":     rootRank,
	"site-churn":     rootChurn,
}

// spanRec is the part of a completed span the per-layer report needs.
type spanRec struct {
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent,omitempty"`
	Op      string        `json:"op"`
	Det     string        `json:"determinant,omitempty"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"duration_ns"`
	Success string        `json:"success,omitempty"`
}

func (s *spanRec) end() time.Time { return s.Start.Add(s.Dur) }

// spanSink keeps every span completed while it is attached, in memory.
type spanSink struct {
	mu    sync.Mutex
	on    bool
	spans []spanRec
}

func newSpanSink() *spanSink {
	return &spanSink{on: true, spans: make([]spanRec, 0, 1<<18)}
}

// SpanStarted implements obs.Sink.
func (k *spanSink) SpanStarted(*obs.Span) {}

// SpanEvent implements obs.Sink.
func (k *spanSink) SpanEvent(*obs.Span, obs.Event) {}

// SpanEnded implements obs.Sink.
func (k *spanSink) SpanEnded(s *obs.Span) {
	rec := spanRec{ID: s.ID, Parent: s.Parent, Op: s.Op, Det: s.Determinant,
		Start: s.Start, Dur: s.Duration, Success: s.Attrs[obs.AttrSuccess]}
	k.mu.Lock()
	if k.on {
		k.spans = append(k.spans, rec)
	}
	k.mu.Unlock()
}

// stop detaches the sink logically: the tracer has no RemoveSink, so
// later spans are dropped here.
func (k *spanSink) stop() {
	k.mu.Lock()
	k.on = false
	k.mu.Unlock()
}

// writeJSONL writes the kept spans to dir, one JSON object a line.
func (k *spanSink) writeJSONL(dir, workload string, seed int64) error {
	//lint:ignore vfsonly the benchmark writes its trace to the host filesystem
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	//lint:ignore vfsonly the benchmark writes its trace to the host filesystem
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range k.spans {
		if err := enc.Encode(&k.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("wrote %d spans to %s", len(k.spans), name)
	return nil
}

// attribution is the traced window folded per span operation.
type attribution struct {
	ops   int
	count map[string]int
	dur   map[string]time.Duration // inclusive, by op
	self  map[string]time.Duration // minus child coverage, by op
	det   map[string]time.Duration // determinant spans, by determinant
	okCnt map[string]int           // spans whose success attr is "true"
	roots time.Duration            // summed root durations
}

// attribute computes every span's self time: its duration minus the part
// of it that its children cover. Spans the engine starts without a parent
// (store records, the ABI check entry point) are children of the root op
// span whose interval contains them.
func attribute(spans []spanRec, rootOp string) *attribution {
	a := &attribution{count: map[string]int{}, dur: map[string]time.Duration{},
		self: map[string]time.Duration{}, det: map[string]time.Duration{}, okCnt: map[string]int{}}
	byID := make(map[uint64]int, len(spans))
	var roots []int
	for i := range spans {
		byID[spans[i].ID] = i
		if spans[i].Op == rootOp {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(x, y int) bool { return spans[roots[x]].Start.Before(spans[roots[y]].Start) })
	children := make(map[int][]int, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Op == rootOp {
			continue
		}
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
			continue
		}
		// Orphan: find the latest root starting at or before it.
		j := sort.Search(len(roots), func(x int) bool { return spans[roots[x]].Start.After(s.Start) })
		for j--; j >= 0; j-- {
			r := &spans[roots[j]]
			if !r.end().Before(s.end()) {
				children[roots[j]] = append(children[roots[j]], i)
				break
			}
			if s.Start.Sub(r.Start) > time.Second {
				break
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		a.count[s.Op]++
		a.dur[s.Op] += s.Dur
		a.self[s.Op] += s.Dur - covered(spans, s, children[i])
		if s.Det != "" {
			a.det[s.Det] += s.Dur
		}
		if s.Success == "true" {
			a.okCnt[s.Op]++
		}
		if s.Op == rootOp {
			a.ops++
			a.roots += s.Dur
		}
	}
	return a
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(spans []spanRec, parent *spanRec, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := &spans[k]
		a, b := c.Start, c.end()
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.end()) {
			b = parent.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 {
			cur = v
			continue
		}
		if !v.a.After(cur.b) {
			if v.b.After(cur.b) {
				cur.b = v.b
			}
			continue
		}
		total += cur.b.Sub(cur.a)
		cur = v
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// knownOps are the span operations a layer metric accounts for; self
// time of any other engine span is reported as unattributed.
var knownOps = map[string]bool{
	obs.OpDescribe: true, obs.OpRegistry: true, obs.OpDiscover: true, obs.OpShardWalk: true,
	obs.OpEvaluate: true, obs.OpDeterminant: true, obs.OpProbe: true, obs.OpAssess: true,
	obs.OpStoreLoad: true, obs.OpStoreCommit: true, obs.OpSymIndex: true, obs.OpABICheck: true,
	rootHTTP: true,
}

// layerMetrics fills the per-layer report from the traced window, the
// untraced window before it (runtime and harness costs, and the tracing
// overhead) and the setup measurements.
func layerMetrics(m map[string]metric, rootOp string, plain, traced *window, setups []setupTimes) {
	a := attribute(traced.spans.spans, rootOp)
	ops := float64(a.ops)
	if ops == 0 {
		ops = 1
	}
	perOp := func(d time.Duration) float64 { return millis(d) / ops }
	mean := func(op string) float64 {
		if a.count[op] == 0 {
			return 0
		}
		return millis(a.dur[op]) / float64(a.count[op])
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := traced.counters
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	put("server.self_ms", "ms", perOp(a.self[rootHTTP]))
	put("server.request_kb", "KB", float64(plain.reqBytes)/1024/float64(plain.attempted))
	put("server.response_kb", "KB", float64(plain.respBytes)/1024/float64(plain.attempted))

	put("feam.coalescer.hit_ratio", "ratio", traced.coalesced.HitRate())

	put("feam.bdc.describe_ms", "ms", perOp(a.dur[obs.OpDescribe]))
	put("feam.bdc.hit_ratio", "ratio", ratio(float64(c["bdc_hits"]), float64(c["bdc_hits"]+c["bdc_misses"])))

	put("feam.edc.lookup_ms", "ms", perOp(a.dur[obs.OpRegistry]))
	put("feam.edc.surveys_per_op", "count", float64(a.count[obs.OpDiscover])/ops)
	put("feam.edc.survey_ms", "ms", mean(obs.OpDiscover))
	put("feam.edc.shard_walks_per_survey", "count", ratio(float64(a.count[obs.OpShardWalk]), float64(a.count[obs.OpDiscover])))

	put("feam.tec.evaluate_self_ms", "ms", perOp(a.self[obs.OpEvaluate]))
	put("feam.tec.isa_ms", "ms", perOp(a.det[feam.DetISA.String()]))
	put("feam.tec.c_library_ms", "ms", perOp(a.det[feam.DetCLibrary.String()]))
	put("feam.tec.mpi_stack_ms", "ms", perOp(a.det[feam.DetMPIStack.String()]))
	put("feam.tec.shared_libs_ms", "ms", perOp(a.det[feam.DetSharedLibs.String()]))

	put("execsim.probes_per_op", "count", float64(a.count[obs.OpProbe])/ops)
	put("execsim.probe_ms", "ms", mean(obs.OpProbe))
	put("execsim.probe_success_ratio", "ratio", ratio(float64(a.okCnt[obs.OpProbe]), float64(a.count[obs.OpProbe])))
	put("execsim.probe_retries_per_op", "count", float64(c["probe_retries"])/ops)

	put("feam.rank.assess_self_ms", "ms", perOp(a.self[obs.OpAssess]))
	put("feam.rank.concurrency", "ratio", ratio(float64(a.dur[obs.OpAssess]), float64(a.roots)))

	put("registry.hit_ratio", "ratio", ratio(float64(c["registry_hit"]), float64(c["registry_hit"]+c["registry_miss"])))
	put("registry.misses_per_op", "count", float64(c["registry_miss"])/ops)
	put("registry.evictions_per_op", "count", float64(c["registry_evict"])/ops)

	put("store.commits_per_op", "count", float64(c["store_commit"])/ops)
	put("store.commit_ms", "ms", mean(obs.OpStoreCommit))
	put("store.loads_per_op", "count", float64(c["store_load"])/ops)
	put("store.load_ms", "ms", mean(obs.OpStoreLoad))

	put("abicheck.index_builds_per_op", "count", float64(a.count[obs.OpSymIndex])/ops)
	put("abicheck.index_build_ms", "ms", mean(obs.OpSymIndex))
	put("abicheck.resolve_ms", "ms", mean(obs.OpABICheck))
	put("abicheck.disagree_ratio", "ratio", ratio(float64(c["abi_disagree"]), float64(c["abi_agree"]+c["abi_disagree"])))

	pops := float64(plain.attempted)
	put("runtime.alloc_kb_per_op", "KB", float64(plain.allocs)/1024/pops)
	put("runtime.gc_cycles_per_s", "1/s", float64(plain.gcCycles)/plain.elapsed.Seconds())
	put("runtime.gc_cpu_fraction", "ratio", plain.gcCPU)

	fleet, stack, cold := make([]float64, len(setups)), make([]float64, len(setups)), make([]float64, len(setups))
	for i, s := range setups {
		fleet[i], stack[i], cold[i] = seconds(s.fleet), seconds(s.stack), seconds(s.cold)
	}
	put("setup.server_new_s", "s", median(stack))
	put("setup.fleet_build_s", "s", median(fleet))
	put("setup.cold_sweep_s", "s", median(cold))

	put("loadgen.self_ms", "ms", millis(plain.harness)/pops)
	put("trace.overhead_ratio", "ratio", plain.throughput()/traced.throughput()-1)
	var unattributed time.Duration
	for op, d := range a.self {
		if !knownOps[op] {
			unattributed += d
		}
	}
	put("trace.unattributed_ms", "ms", perOp(unattributed))
}
