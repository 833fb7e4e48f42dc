package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is a deterministic time source: every call advances by step.
type testClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newTestClock(step time.Duration) *testClock {
	return &testClock{now: time.Unix(1700000000, 0), step: step}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func newTestTracer(capacity int) *Tracer {
	t := NewTracer(capacity)
	t.now = newTestClock(time.Millisecond).Now
	return t
}

func TestSpanLifecycle(t *testing.T) {
	tr := newTestTracer(16)
	parent := tr.Start(OpEvaluate, WithBinary("cg.A.4"), WithSite("india"))
	child := tr.Start(OpDeterminant, WithParent(parent), WithDeterminant("MPI stack"))
	child.Event(EvProbeRetry, AttrStack, "openmpi-1.4.3-gnu", AttrAttempt, "1")
	child.End(nil)
	parent.SetAttr(AttrReady, "true")
	parent.End(nil)

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(spans))
	}
	// Ring order is completion order: child ended first.
	c, p := spans[0], spans[1]
	if c.Op != OpDeterminant || p.Op != OpEvaluate {
		t.Fatalf("ops = %s, %s", c.Op, p.Op)
	}
	if c.Parent != p.ID {
		t.Errorf("child.Parent = %d, want parent ID %d", c.Parent, p.ID)
	}
	if c.Determinant != "MPI stack" {
		t.Errorf("Determinant = %q", c.Determinant)
	}
	if c.Status != StatusOK || p.Status != StatusOK {
		t.Errorf("statuses = %q, %q", c.Status, p.Status)
	}
	if c.Duration <= 0 {
		t.Errorf("child duration = %v, want > 0", c.Duration)
	}
	if len(c.Events) != 1 || c.Events[0].Name != EvProbeRetry {
		t.Fatalf("child events = %+v", c.Events)
	}
	if got := c.Events[0].Attrs[AttrStack]; got != "openmpi-1.4.3-gnu" {
		t.Errorf("event stack attr = %q", got)
	}
	if p.Attrs[AttrReady] != "true" {
		t.Errorf("parent ready attr = %q", p.Attrs[AttrReady])
	}
	if tr.Total() != 2 {
		t.Errorf("Total = %d, want 2", tr.Total())
	}
}

func TestSpanErrorStatus(t *testing.T) {
	tr := newTestTracer(4)
	sp := tr.Start(OpDiscover, WithSite("edge"))
	sp.End(fmt.Errorf("uname unreadable"))
	got := tr.Snapshot()[0]
	if got.Status != StatusError {
		t.Errorf("status = %q", got.Status)
	}
	if got.ErrMsg != "uname unreadable" {
		t.Errorf("err = %q", got.ErrMsg)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(OpProbe, WithSite("x"))
	if sp != nil {
		t.Fatalf("nil tracer Start returned %v", sp)
	}
	// All nil-span methods must be safe.
	sp.SetAttr("k", "v")
	sp.Event(EvCache, AttrHit, "true")
	sp.End(nil)
	if tr.Total() != 0 || tr.Snapshot() != nil {
		t.Error("nil tracer has state")
	}
}

func TestRingBufferEvictsOldestFirst(t *testing.T) {
	tr := newTestTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.Start(OpProbe, WithAttr("i", fmt.Sprint(i)))
		sp.End(nil)
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	for j, sp := range spans {
		if want := fmt.Sprint(6 + j); sp.Attrs["i"] != want {
			t.Errorf("span %d: i = %q, want %q (oldest-first order)", j, sp.Attrs["i"], want)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("Total = %d, want 10", tr.Total())
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	tr := newTestTracer(8)
	sp := tr.Start(OpStaging, WithSite("fir"), WithAttr(AttrDir, "/tmp/stage"))
	sp.Event(EvStagingRetry, AttrPath, "/tmp/stage/libm.so", AttrAttempt, "1", AttrBackoffNS, "1000000")
	sp.SetAttr(AttrCommitted, "true")
	sp.End(nil)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var got Span
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if got.Op != OpStaging || got.Site != "fir" || got.Attrs[AttrCommitted] != "true" {
			t.Errorf("decoded span = %+v", got)
		}
		if len(got.Events) != 1 || got.Events[0].Attrs[AttrBackoffNS] != "1000000" {
			t.Errorf("decoded events = %+v", got.Events)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("decoded %d lines, want 1", n)
	}
}

func TestJSONLSinkStreamsEverySpan(t *testing.T) {
	var buf bytes.Buffer
	tr := newTestTracer(2) // smaller than the span count: ring loses, sink must not
	tr.AddSink(NewJSONLSink(&buf))
	for i := 0; i < 7; i++ {
		tr.Start(OpDescribe, WithBinary(fmt.Sprintf("bin%d", i))).End(nil)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 7 {
		t.Fatalf("sink wrote %d lines, want 7 (ring kept %d)", lines, len(tr.Snapshot()))
	}
}

func TestContextSpanPropagation(t *testing.T) {
	tr := newTestTracer(4)
	sp := tr.Start(OpAssess, WithSite("india"))
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext = %v", got)
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatalf("empty context span = %v", got)
	}
	// Nil span leaves the context untouched.
	if ctx2 := ContextWithSpan(ctx, nil); SpanFromContext(ctx2) != sp {
		t.Error("nil span overwrote the context parent")
	}
	sp.End(nil)
}

// recordingSink captures lifecycle callbacks in order.
type recordingSink struct {
	mu     sync.Mutex
	events []string
}

func (r *recordingSink) add(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, s)
}

func (r *recordingSink) SpanStarted(sp *Span)        { r.add("start:" + sp.Op) }
func (r *recordingSink) SpanEnded(sp *Span)          { r.add("end:" + sp.Op) }
func (r *recordingSink) SpanEvent(sp *Span, e Event) { r.add("event:" + e.Name) }

func TestSinkNotificationOrder(t *testing.T) {
	tr := newTestTracer(4)
	rec := &recordingSink{}
	tr.AddSink(rec)
	sp := tr.Start(OpEvaluate)
	sp.Event(EvCache, AttrComponent, "bdc", AttrHit, "false")
	sp.End(nil)
	want := []string{"start:evaluate", "event:cache", "end:evaluate"}
	if fmt.Sprint(rec.events) != fmt.Sprint(want) {
		t.Fatalf("sink saw %v, want %v", rec.events, want)
	}
}

func TestConcurrentSpansAndSnapshots(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Start(OpProbe, WithSite(fmt.Sprintf("site%d", g)))
				sp.Event(EvProbeRetry, AttrAttempt, "1")
				sp.End(nil)
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		_ = tr.Snapshot()
	}
	wg.Wait()
	if tr.Total() != 400 {
		t.Fatalf("Total = %d, want 400", tr.Total())
	}
}
