// Package obs is FEAM's observability layer: hierarchical span tracing,
// lock-free latency histograms, and an exportable metrics registry.
//
// The paper's value claim is quantitative — Table III prediction accuracy
// and the per-determinant trail of §V.C — so the pipeline must be able to
// show *where* time goes (describe vs. discover vs. probe runs vs. staging)
// and which determinant dominates a survey. This package provides the three
// pieces the engine threads through every operation:
//
//   - Tracer: spans (operation + site + determinant with parent links,
//     status, attributes and point-in-time events) collected in an
//     in-memory ring buffer and exportable as JSONL. Sinks observe span
//     lifecycle; the registry sink derives all engine counters from them.
//   - Histogram: log-bucketed latency histograms recorded with atomics
//     only, safe for concurrent recording from engine workers without
//     coordination.
//   - Registry: a named collection of histograms and counters whose
//     snapshot renders as JSON or Prometheus text exposition format.
//
// The span taxonomy (operation vocabulary) is fixed so that exports are
// stable across tools; see the Op* and Ev* constants.
package obs

import "time"

// Canonical span operations emitted by the FEAM prediction pipeline. The
// registry sink keys one latency histogram per operation.
const (
	// OpDescribe is one Binary Description Component run (cache hits
	// included; a hit shows up as a microsecond-scale sample).
	OpDescribe = "describe"
	// OpDiscover is one Environment Discovery Component survey.
	OpDiscover = "discover"
	// OpShardWalk is one shard-directory walk inside a survey. Only shards
	// whose tree stamp changed since the cached record are walked, so the
	// span count is the observable measure of survey incrementality: an
	// unchanged site emits none, a C-library upgrade emits exactly one.
	OpShardWalk = "shard_walk"
	// OpEvaluate is one Target Evaluation Component run over the
	// determinant ladder.
	OpEvaluate = "evaluate"
	// OpDeterminant is one determinant evaluator's turn inside OpEvaluate.
	OpDeterminant = "determinant"
	// OpProbe is one probe-program execution attempt.
	OpProbe = "probe"
	// OpStaging is one transactional library-staging plan (commit or
	// rollback); OpStagingOp is one filesystem operation attempt inside it.
	OpStaging   = "staging"
	OpStagingOp = "staging_op"
	// OpRetrySleep aggregates backoff time spent between retry attempts.
	// It is recorded from retry events rather than wrapped in spans.
	OpRetrySleep = "retry_sleep"
	// OpAssess is one whole-site assessment inside a RankSites survey
	// (survey + evaluation under the site lock).
	OpAssess = "assess"
	// OpRegistry is one SiteRegistry cache consultation (survey or
	// description). Cache hits land here instead of OpDiscover, so a
	// discover span always means a real site survey ran.
	OpRegistry = "registry"
	// OpStoreLoad and OpStoreCommit are persistent-store record reads and
	// atomic-rename writes; their histograms are the store's latency
	// surface (`store_load` / `store_commit`).
	OpStoreLoad   = "store_load"
	OpStoreCommit = "store_commit"
	// OpSymIndex is one per-site exported-symbol index build (a cached
	// index emits no span); OpABICheck is one symbol-resolution pass over
	// that index. Their histograms are the ABI analyzer's index-build and
	// resolve latency surfaces.
	OpSymIndex = "sym_index"
	OpABICheck = "abi_check"
)

// Canonical span event names.
const (
	// EvCache marks a memoized-component lookup (attrs: component, key, hit).
	EvCache = "cache"
	// EvProbeRetry marks a transient probe failure about to be retried
	// (attrs: stack, attempt, backoff_ns).
	EvProbeRetry = "probe_retry"
	// EvStagingRetry marks a transient staging-write failure about to be
	// retried (attrs: path, attempt, backoff_ns).
	EvStagingRetry = "staging_retry"
)

// Canonical attribute keys.
const (
	AttrReady     = "ready"
	AttrSuccess   = "success"
	AttrCommitted = "committed"
	AttrComponent = "component"
	AttrKey       = "key"
	AttrHit       = "hit"
	AttrStack     = "stack"
	AttrAttempt   = "attempt"
	AttrBackoffNS = "backoff_ns"
	AttrLibs      = "libs"
	AttrDir       = "dir"
	AttrPath      = "path"
	AttrDetail    = "detail"
	// AttrSource distinguishes which layer satisfied a cache lookup
	// ("registry" for the in-memory shard, "store" for rehydration).
	AttrSource = "source"
	// AttrKind is a persistent-store record namespace ("survey", "bdc",
	// "bundle", "site").
	AttrKind = "kind"
)

// Event is a point-in-time annotation on a span.
type Event struct {
	Name string `json:"name"`
	// Offset is the time since the owning span started.
	Offset time.Duration     `json:"offset_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Span is one traced operation. A span is created with Tracer.Start, owned
// by a single goroutine until End, and immutable afterwards. Site, Binary,
// and Determinant are first-class because they are the paper's natural
// trace coordinates; everything else goes in Attrs.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     string `json:"op"`

	Site        string `json:"site,omitempty"`
	Binary      string `json:"binary,omitempty"`
	Determinant string `json:"determinant,omitempty"`

	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Status is "ok" or "error"; ErrMsg carries the error text.
	Status string `json:"status,omitempty"`
	ErrMsg string `json:"err,omitempty"`

	Attrs  map[string]string `json:"attrs,omitempty"`
	Events []Event           `json:"events,omitempty"`

	tracer *Tracer
}

// SetAttr sets one attribute. Safe on a nil span (no-op).
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil {
		return nil
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = value
	return s
}

// Event records a point-in-time event with key/value attribute pairs and
// notifies the tracer's sinks. Safe on a nil span (no-op).
func (s *Span) Event(name string, kv ...string) {
	if s == nil || s.tracer == nil {
		return
	}
	ev := Event{Name: name, Offset: s.tracer.now().Sub(s.Start)}
	if len(kv) > 0 {
		ev.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.Attrs[kv[i]] = kv[i+1]
		}
	}
	s.Events = append(s.Events, ev)
	s.tracer.spanEvent(s, ev)
}

// End finishes the span: the duration is fixed, the status derived from
// err, the span is pushed into the tracer's ring buffer, and sinks are
// notified. Safe on a nil span (no-op). A span must be ended exactly once.
func (s *Span) End(err error) {
	if s == nil || s.tracer == nil {
		return
	}
	s.Duration = s.tracer.now().Sub(s.Start)
	if err != nil {
		s.Status = StatusError
		s.ErrMsg = err.Error()
	} else {
		s.Status = StatusOK
	}
	s.tracer.finish(s)
}

// Span status values.
const (
	StatusOK    = "ok"
	StatusError = "error"
)
