package obs

import (
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10}, // 1024µs > 512µs (idx 9), ≤ 1024µs (idx 10)
		{time.Second, 20},      // 1e6µs ≤ 2^20µs
		{BucketBound(NumBuckets - 1), NumBuckets - 1},
		{BucketBound(NumBuckets-1) + 1, NumBuckets},
		{time.Hour, NumBuckets},
	}
	for _, c := range cases {
		d := c.d
		if d < 0 {
			d = 0 // Observe clamps; bucketIndex expects non-negative
		}
		if got := bucketIndex(d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every finite bucket's bound must land in its own bucket (inclusive
	// upper bound), and one past it in the next.
	for i := 0; i < NumBuckets; i++ {
		if got := bucketIndex(BucketBound(i)); got != i {
			t.Errorf("bound of bucket %d maps to %d", i, got)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := &Histogram{op: OpProbe}
	samples := []time.Duration{
		500 * time.Nanosecond,
		time.Microsecond,
		3 * time.Microsecond,
		time.Millisecond,
		2 * time.Second,
		-time.Second, // clamps to 0 → bucket 0
	}
	for _, d := range samples {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Op != OpProbe {
		t.Errorf("op = %q", s.Op)
	}
	if s.Count != uint64(len(samples)) {
		t.Errorf("count = %d, want %d", s.Count, len(samples))
	}
	wantSum := 500*time.Nanosecond + time.Microsecond + 3*time.Microsecond + time.Millisecond + 2*time.Second
	if s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Max != 2*time.Second {
		t.Errorf("max = %v", s.Max)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, count is %d", total, s.Count)
	}
	if s.Buckets[0].LE != BucketBound(0) || s.Buckets[0].Count != 3 {
		t.Errorf("first bucket = %+v, want le=1µs count=3", s.Buckets[0])
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := &Histogram{op: OpRetrySleep}
	h.Observe(10 * time.Hour)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].LE != -1 {
		t.Fatalf("buckets = %+v, want single overflow (LE=-1)", s.Buckets)
	}
	if got := s.Quantile(0.5); got != 10*time.Hour {
		t.Errorf("overflow quantile = %v, want the observed max", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{op: OpEvaluate}
	// 90 fast samples (≤1µs) and 10 slow (≤1.024ms bucket).
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != BucketBound(0) {
		t.Errorf("p50 = %v, want %v", got, BucketBound(0))
	}
	if got := s.Quantile(0.95); got != s.Max {
		// The p95 sample sits in the 1.024ms bucket, whose bound exceeds
		// the observed max — the estimate caps at the max.
		t.Errorf("p95 = %v, want max %v", got, s.Max)
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("p100 = %v, want max %v", got, s.Max)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// TestHistogramConcurrentRecordingLosesNoSamples drives recording from many
// goroutines: the atomic counters must account for every sample.
func TestHistogramConcurrentRecordingLosesNoSamples(t *testing.T) {
	h := &Histogram{op: OpProbe}
	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	s := h.Snapshot()
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != goroutines*per {
		t.Fatalf("bucket total = %d, want %d", total, goroutines*per)
	}
}

// BenchmarkHistogramObserve bounds the per-sample recording cost — it must
// stay far below the microseconds-scale operations it measures (the <5%
// overhead budget on the ranking fan-out).
func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{op: OpEvaluate}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 37 * time.Microsecond
		for pb.Next() {
			h.Observe(d)
		}
	})
}

// BenchmarkSpanLifecycle measures a full start/attr/end cycle, the unit of
// tracing overhead added around each pipeline operation.
func BenchmarkSpanLifecycle(b *testing.B) {
	tr := NewTracer(1024)
	tr.AddSink(NewRegistrySink(NewRegistry()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(OpDeterminant, WithSite("india"), WithBinary("cg"))
		sp.SetAttr("outcome", "pass")
		sp.End(nil)
	}
}
