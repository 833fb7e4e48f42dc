package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the ring-buffer size a zero-configured tracer keeps:
// large enough to hold a full testbed evaluation's recent history, small
// enough to be negligible memory. Exports that must not lose spans attach
// a streaming JSONLSink instead of relying on the ring.
const DefaultCapacity = 8192

// Sink observes span lifecycle. Implementations must be safe for
// concurrent notification (spans end on whichever goroutine did the work)
// and must not retain or mutate the span after the callback returns.
type Sink interface {
	SpanStarted(s *Span)
	SpanEnded(s *Span)
	SpanEvent(s *Span, e Event)
}

// Tracer creates spans and fans their lifecycle out to sinks, keeping the
// most recent completed spans in a fixed-size ring buffer. The zero-value
// Tracer is not usable; construct with NewTracer. A nil *Tracer is safe:
// Start returns a nil span whose methods no-op, so instrumented code never
// branches on tracing being enabled.
type Tracer struct {
	nextID atomic.Uint64
	now    func() time.Time

	mu     sync.Mutex
	ring   []*Span
	next   int
	filled bool
	total  uint64
	// sinks holds an immutable snapshot swapped wholesale on AddSink, so
	// the per-span fan-out (several notifications per traced operation)
	// reads it with one atomic load instead of taking a lock.
	sinks atomic.Pointer[[]Sink]
}

// NewTracer returns a tracer whose ring buffer holds up to capacity
// completed spans (DefaultCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: make([]*Span, capacity), now: time.Now}
}

// AddSink registers a lifecycle observer. A RegistrySink for a metrics
// registry this tracer already feeds is ignored, so engines rebuilt over
// one tracer and one metrics registry (a restart) count each span once.
func (t *Tracer) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var next []Sink
	if cur := t.sinks.Load(); cur != nil {
		next = append(next, *cur...)
	}
	if rs, ok := s.(*RegistrySink); ok {
		for _, cur := range next {
			if c, ok := cur.(*RegistrySink); ok && c.reg == rs.reg {
				return
			}
		}
	}
	next = append(next, s)
	t.sinks.Store(&next)
}

func (t *Tracer) snapshotSinks() []Sink {
	cur := t.sinks.Load()
	if cur == nil {
		return nil
	}
	return *cur
}

// SpanOpt configures a span at Start time (identity fields must be set
// before sinks see the span).
type SpanOpt func(*Span)

// WithParent links the span under parent (no-op for a nil parent).
func WithParent(parent *Span) SpanOpt {
	return func(s *Span) {
		if parent != nil {
			s.Parent = parent.ID
		}
	}
}

// WithSite sets the span's site coordinate.
func WithSite(site string) SpanOpt { return func(s *Span) { s.Site = site } }

// WithBinary sets the span's binary coordinate.
func WithBinary(binary string) SpanOpt { return func(s *Span) { s.Binary = binary } }

// WithDeterminant sets the span's determinant coordinate.
func WithDeterminant(d string) SpanOpt { return func(s *Span) { s.Determinant = d } }

// WithAttr sets one attribute.
func WithAttr(key, value string) SpanOpt { return func(s *Span) { s.SetAttr(key, value) } }

// Start opens a span for an operation and notifies sinks. The caller owns
// the span until End. Safe on a nil tracer (returns a nil, no-op span).
func (t *Tracer) Start(op string, opts ...SpanOpt) *Span {
	if t == nil {
		return nil
	}
	s := &Span{ID: t.nextID.Add(1), Op: op, Start: t.now(), tracer: t}
	for _, opt := range opts {
		opt(s)
	}
	for _, sink := range t.snapshotSinks() {
		sink.SpanStarted(s)
	}
	return s
}

func (t *Tracer) spanEvent(s *Span, e Event) {
	for _, sink := range t.snapshotSinks() {
		sink.SpanEvent(s, e)
	}
}

func (t *Tracer) finish(s *Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.total++
	t.mu.Unlock()
	for _, sink := range t.snapshotSinks() {
		sink.SpanEnded(s)
	}
}

// Total returns the number of spans completed over the tracer's lifetime
// (including spans already evicted from the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns copies of the completed spans still held in the ring
// buffer, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ordered []*Span
	if t.filled {
		ordered = append(ordered, t.ring[t.next:]...)
		ordered = append(ordered, t.ring[:t.next]...)
	} else {
		ordered = t.ring[:t.next]
	}
	out := make([]Span, len(ordered))
	for i, s := range ordered {
		out[i] = *s
	}
	return out
}

// WriteJSONL exports the ring buffer's spans as JSON Lines, oldest first.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Snapshot() {
		if err := enc.Encode(&s); err != nil {
			return err
		}
	}
	return nil
}

// JSONLSink streams every completed span to a writer as one JSON line —
// the lossless export path for long runs that outgrow the ring buffer.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink returns a sink streaming completed spans to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// SpanStarted implements Sink.
func (j *JSONLSink) SpanStarted(*Span) {}

// SpanEvent implements Sink.
func (j *JSONLSink) SpanEvent(*Span, Event) {}

// SpanEnded implements Sink.
func (j *JSONLSink) SpanEnded(s *Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.enc.Encode(s)
}

// spanKey is the context key for the current parent span.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp as the current parent
// span; nested pipeline operations link their spans under it.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current parent span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
