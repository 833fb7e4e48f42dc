package feam

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Coalescer deduplicates concurrent identical predictions over one
// engine: when K callers ask for the same (binary, site, options) at the
// same time, one leader takes the site lock and runs the evaluation while
// the other K-1 wait for its result — singleflight for the Target
// Evaluation Component. A serving layer fronted by many clients asking
// "is my binary ready for site X?" would otherwise serialize K full
// evaluations behind the site lock, each one re-probing stacks the
// previous caller just probed.
//
// The returned *Prediction is shared between the leader and its
// followers; callers must treat it as immutable.
type Coalescer struct {
	eng *Engine

	mu      sync.Mutex
	flights map[flightKey]*flight

	leads     atomic.Uint64
	coalesced atomic.Uint64
}

// flightKey identifies an evaluation for deduplication purposes: the
// binary's content hash, the target site, and a digest of the options
// that steer the outcome. The site's environment fingerprint participates
// implicitly — the engine's survey cache is fingerprint-keyed, so a
// changed site invalidates the cached survey, not the coalescing.
type flightKey struct {
	binHash string
	site    string
	opts    uint64
}

// flight is one in-progress evaluation. done is closed once pred/err are
// set; they are immutable afterwards.
type flight struct {
	done chan struct{}
	pred *Prediction
	err  error
}

// NewCoalescer wraps an engine with in-flight request deduplication.
func NewCoalescer(e *Engine) *Coalescer {
	return &Coalescer{eng: e, flights: map[flightKey]*flight{}}
}

// CoalescerStats reports deduplication effectiveness.
type CoalescerStats struct {
	// Leads counts evaluations actually run (flight leaders).
	Leads uint64
	// Coalesced counts requests that attached to an in-flight evaluation
	// instead of running their own.
	Coalesced uint64
}

// Stats returns cumulative coalescing counters.
func (c *Coalescer) Stats() CoalescerStats {
	return CoalescerStats{Leads: c.leads.Load(), Coalesced: c.coalesced.Load()}
}

// HitRate returns the fraction of requests served by an already-running
// evaluation (0 when no requests have been seen).
func (s CoalescerStats) HitRate() float64 {
	total := s.Leads + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Coalesced) / float64(total)
}

// Predict runs one evaluation, deduplicating against identical in-flight
// requests. The leader takes the engine's per-site lock (callers must NOT
// hold it) and evaluates; followers wait for the leader, honoring their
// own ctx. coalesced reports whether this call rode an existing flight.
//
// A follower whose leader was cancelled retries as its own flight rather
// than inheriting the cancellation — the leader's ctx is not the
// follower's.
func (c *Coalescer) Predict(ctx context.Context, req EvalRequest) (pred *Prediction, coalesced bool, err error) {
	if req.Site != nil && req.Desc == nil && req.Binary != nil {
		// Describe here, outside the site lock: the flight key is the
		// description's content hash and the leader evaluates the
		// description, so the binary is hashed once per request.
		if req.Desc, err = c.eng.describeBinary(ctx, req); err != nil {
			return nil, false, err
		}
	}
	key, ok := c.keyOf(req)
	if !ok {
		// No binary identity to coalesce on; let Predict produce its
		// usual diagnostic.
		pred, err = c.lead(ctx, req)
		return pred, false, err
	}
	for {
		c.mu.Lock()
		if f := c.flights[key]; f != nil {
			c.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-ctx.Done():
				return nil, true, fmt.Errorf("%w: awaiting coalesced evaluation: %w", ErrProbeFailed, ctx.Err())
			case <-f.done:
			}
			if f.err != nil && errors.Is(f.err, context.Canceled) && ctx.Err() == nil {
				// The leader was cancelled but this caller was not:
				// its request is still live, so run it.
				continue
			}
			return f.pred, true, f.err
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		f.pred, f.err = c.lead(ctx, req)
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return f.pred, false, f.err
	}
}

// lead runs one evaluation under the site lock — the same discipline as
// assessSite: lock, survey through the memoized EDC, evaluate.
func (c *Coalescer) lead(ctx context.Context, req EvalRequest) (*Prediction, error) {
	c.leads.Add(1)
	if req.Site == nil {
		return nil, fmt.Errorf("%w: request names no site", ErrNoEnvironment)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: evaluation not started: %w", ErrProbeFailed, err)
	}
	lock := c.eng.SiteLock(req.Site.Name)
	lock.Lock()
	defer lock.Unlock()
	return c.eng.Predict(ctx, req)
}

// keyOf derives the deduplication key. Requests without any binary
// identity (no description, bytes, or bundle) are not coalescable.
func (c *Coalescer) keyOf(req EvalRequest) (flightKey, bool) {
	if req.Site == nil {
		return flightKey{}, false
	}
	var binHash string
	switch {
	case req.Desc != nil && req.Desc.ContentHash != "":
		binHash = req.Desc.ContentHash
	case req.Options.Bundle != nil && req.Options.Bundle.App != nil:
		binHash = req.Options.Bundle.App.ContentHash
	default:
		return flightKey{}, false
	}
	return flightKey{binHash: binHash, site: req.Site.Name, opts: optionsDigest(req.Options)}, true
}

// optionsDigest fingerprints the evaluation options that change the
// outcome. Runner and Evaluators identities are deliberately excluded: a
// server hands every request the same ones, and function values have no
// stable identity to hash.
func optionsDigest(o EvalOptions) uint64 {
	h := fnv.New64a()
	bundleHash := ""
	if o.Bundle != nil && o.Bundle.App != nil {
		bundleHash = o.Bundle.App.ContentHash
	}
	fmt.Fprintf(h, "resolve=%t shallow=%t stage=%s bundle=%s probe=%t",
		o.Resolve, o.ShallowResolution, o.StageDir, bundleHash, o.Runner != nil)
	return h.Sum64()
}
