package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: bucket i covers (base·2^(i-1), base·2^i] with
// base = 1µs; bucket 0 covers (0, 1µs]. 28 finite buckets reach ~134s,
// beyond any single pipeline operation; slower samples land in the
// overflow (+Inf) bucket. Log bucketing gives constant relative error
// (≤2×) across nine orders of magnitude with a fixed, tiny footprint.
const (
	bucketBase = time.Microsecond
	// NumBuckets is the number of finite histogram buckets; the overflow
	// bucket is stored at index NumBuckets.
	NumBuckets = 28
)

// BucketBound returns the inclusive upper bound of finite bucket i.
func BucketBound(i int) time.Duration { return bucketBase << uint(i) }

// bucketIndex maps a duration to its bucket (NumBuckets = overflow).
func bucketIndex(d time.Duration) int {
	if d <= bucketBase {
		return 0
	}
	// Smallest idx with base·2^idx >= d. Since 2^idx is integral the
	// condition is 2^idx >= ceil(d/base), and bits.Len64(n-1) is the
	// smallest power-of-two exponent covering n.
	units := uint64((d + bucketBase - 1) / bucketBase)
	idx := bits.Len64(units - 1)
	if idx >= NumBuckets {
		return NumBuckets
	}
	return idx
}

// Histogram is a lock-free latency histogram. Recording is a couple of
// atomic adds plus a CAS loop for the maximum, so engine workers record
// without coordination; the zero value is NOT ready — histograms belong to
// a Registry, which names them by pipeline operation.
type Histogram struct {
	op     string
	counts [NumBuckets + 1]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// Op returns the pipeline operation this histogram measures.
func (h *Histogram) Op() string { return h.op }

// Observe records one sample. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistBucket is one non-empty bucket in a snapshot. LE is the inclusive
// upper bound; the overflow bucket carries LE = -1 (+Inf).
type HistBucket struct {
	LE    time.Duration `json:"le_ns"`
	Count uint64        `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram. Buckets holds raw
// (non-cumulative) counts for non-empty buckets only, in bound order.
type HistSnapshot struct {
	Op      string        `json:"op"`
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	Max     time.Duration `json:"max_ns"`
	Buckets []HistBucket  `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's state. Concurrent recording may make
// the copy slightly torn (count vs. buckets drifting by in-flight
// samples); the drift is bounded by concurrency and irrelevant for
// monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Op:  h.op,
		Sum: time.Duration(h.sum.Load()),
		Max: time.Duration(h.max.Load()),
	}
	for i := 0; i <= NumBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		le := BucketBound(i)
		if i == NumBuckets {
			le = -1
		}
		s.Buckets = append(s.Buckets, HistBucket{LE: le, Count: c})
		s.Count += c
	}
	return s
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the bound of the bucket containing the q-th sample. The overflow bucket
// and q=1 report the exact observed maximum.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			if b.LE < 0 || b.LE > s.Max {
				return s.Max
			}
			return b.LE
		}
	}
	return s.Max
}
