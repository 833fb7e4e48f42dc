package fault

import (
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Injector decides whether an operation fails. Implementations must be
// safe for concurrent use — site filesystems and runners are exercised
// from worker goroutines.
type Injector interface {
	// Fail returns nil to let the operation proceed, or a *Fault to make
	// it fail. Cancelling ctx aborts any injected latency; the ctx error
	// is returned in place of a fault.
	Fail(ctx context.Context, op, path string) error
}

// Policy is a deterministic rate-based injector: each (op, path, sequence)
// tuple is hashed to decide failure, so runs are reproducible for a given
// seed yet behave like random site flakiness. The zero value injects
// nothing.
type Policy struct {
	// Rate is the per-operation fault probability in [0, 1].
	Rate float64
	// TransientFraction is the share of injected faults classified
	// transient (the rest are permanent). 1 means every fault is
	// transient.
	TransientFraction float64
	// Seed drives the deterministic hash.
	Seed int64
	// Ops restricts injection to the named operations; empty means all.
	Ops []string
	// Latency is added to every injected fault (simulated slow-failure of
	// an overloaded filesystem). Keep it small in tests.
	Latency time.Duration

	seq      atomic.Uint64
	injected atomic.Uint64
}

// Injected returns how many faults the policy has delivered.
func (p *Policy) Injected() uint64 { return p.injected.Load() }

// SiteSeed derives a site's policy seed from a run's seed. A policy draws
// every decision from one sequence, so sites assessed concurrently need
// one policy each, seeded by SiteSeed, for the faults each site sees to
// be independent of how operations at other sites interleave with its own.
func SiteSeed(seed int64, site string) int64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return seed ^ int64(h.Sum64())
}

// Fail implements Injector.
func (p *Policy) Fail(ctx context.Context, op, path string) error {
	if p == nil || p.Rate <= 0 {
		return nil
	}
	if len(p.Ops) > 0 {
		found := false
		for _, o := range p.Ops {
			if o == op {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	n := p.seq.Add(1)
	if p.unit("fault", op, path, n) >= p.Rate {
		return nil
	}
	// The injected latency must honor cancellation: a cancelled Predict
	// has no business waiting out a simulated slow filesystem. A cancelled
	// wait is the caller's error, not an injected fault.
	if err := Sleep(ctx, p.Latency); err != nil {
		return err
	}
	class := Permanent
	if p.unit("class", op, path, n) < p.TransientFraction {
		class = Transient
	}
	p.injected.Add(1)
	return New(class, op, path)
}

// unit hashes the tuple deterministically to [0, 1).
func (p *Policy) unit(kind, op, path string, n uint64) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(p.Seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(path))
	for i := 0; i < 8; i++ {
		buf[i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	return float64(h.Sum64()%1e9) / 1e9
}

// scriptEntry is one queued decision: pass (fault == nil) or fail, for
// operations matching op (empty = any).
type scriptEntry struct {
	op    string
	fault *Fault
}

// Script is a deterministic scripted injector for tests: it fails exactly
// the operations enqueued with FailNext, in order, matching by op name.
// Operations with other names pass through without consuming the script —
// including the explicit passes queued by FailNth, so interleaved
// unrelated operations cannot shift which matching operation fails.
type Script struct {
	mu    sync.Mutex
	queue []scriptEntry
	// injected counts faults actually delivered.
	injected int
}

// FailNext enqueues a fault: the next operation whose op matches will fail
// with the given class. An empty op matches any operation.
func (s *Script) FailNext(class Class, op string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, scriptEntry{op: op, fault: &Fault{Class: class, Op: op}})
}

// FailNth enqueues (n-1) passes followed by one fault for the matching op:
// shorthand for letting a plan's first writes succeed and breaking the
// nth. Counting is per matching operation.
func (s *Script) FailNth(class Class, op string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 1; i < n; i++ {
		s.queue = append(s.queue, scriptEntry{op: op}) // explicit pass
	}
	s.queue = append(s.queue, scriptEntry{op: op, fault: &Fault{Class: class, Op: op}})
}

// Fail implements Injector. The script never sleeps, so ctx is unused
// beyond satisfying the interface.
func (s *Script) Fail(_ context.Context, op, path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	head := s.queue[0]
	if head.op != "" && head.op != op {
		return nil
	}
	s.queue = s.queue[:copy(s.queue, s.queue[1:])]
	if head.fault == nil {
		return nil
	}
	s.injected++
	return &Fault{Class: head.fault.Class, Op: op, Path: path}
}

// Injected returns how many faults the script has delivered.
func (s *Script) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// Hook adapts an Injector to the vfs operation-hook signature
// (vfs.FS.SetOpHook), binding the installer's ctx into every hook call —
// vfs operations carry no context of their own. A nil injector clears
// the hook.
func Hook(ctx context.Context, inj Injector) func(op, path string) error {
	if inj == nil {
		return nil
	}
	return func(op, path string) error {
		return inj.Fail(ctx, op, path)
	}
}
