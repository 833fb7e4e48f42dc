package feam

import (
	"feam/internal/fault"
	"feam/internal/obs"
	"feam/internal/registry"
)

// Option configures an Engine at construction time. Pass options to New;
// the zero configuration is the paper's default pipeline (§V.C determinant
// order, host-sized worker pool, default transient-retry policy, a private
// tracer, metrics registry, and site registry, no persistent store).
type Option func(*engineConfig)

type engineConfig struct {
	workers int
	retry   fault.RetryPolicy
	tracer  *obs.Tracer
	metrics *obs.Registry
	sites   SiteRegistry
	store   Store
}

// WithWorkers sets the fan-out width for RankSites (minimum 1).
func WithWorkers(n int) Option {
	return func(c *engineConfig) {
		if n < 1 {
			n = 1
		}
		c.workers = n
	}
}

// WithRetryPolicy sets the transient-fault retry policy used around probe
// runs and staging writes. The zero policy disables retries.
func WithRetryPolicy(p fault.RetryPolicy) Option {
	return func(c *engineConfig) { c.retry = p }
}

// WithTracer sets the engine's span tracer. Sharing one tracer across
// engines merges their span streams (ring buffer, sinks, exports). A nil
// tracer is replaced by a private default-capacity tracer.
func WithTracer(t *obs.Tracer) Option {
	return func(c *engineConfig) { c.tracer = t }
}

// WithMetrics sets the metrics registry the engine's span stream feeds.
// Sharing one registry across engines aggregates their latency histograms
// and event counters. A nil registry is replaced by a private one.
func WithMetrics(r *obs.Registry) Option {
	return func(c *engineConfig) { c.metrics = r }
}

// WithRegistry sets the engine's site-state layer: per-site locks and the
// memo of derived values (surveys, descriptions, shards, symbol indexes).
// Engines sharing one SiteRegistry share one coherent fleet — one set of
// site locks, one set of caches — which is what makes running many
// stateless engines over the same sites safe. A nil registry is replaced
// by a private sharded one (internal/registry) wired to the engine's
// metrics.
func WithRegistry(r SiteRegistry) Option {
	return func(c *engineConfig) { c.sites = r }
}

// WithStore sets the engine's persistence layer. With a store configured
// the engine persists surveys, binary descriptions, survey shards, symbol
// indexes, bundles, and site records as it computes them, and a restarted process rehydrates them
// instead of re-running discovery. Without one the engine is purely
// in-memory.
func WithStore(s Store) Option {
	return func(c *engineConfig) { c.store = s }
}

// New returns an engine configured by opts. Every engine carries a tracer,
// a metrics registry, and a site registry (private ones unless injected
// with WithTracer / WithMetrics / WithRegistry): all pipeline operations
// emit spans, a registry sink derives the latency histograms and event
// counters from them (one sink per tracer and metrics registry, however
// many engines share them), and all engine state lives in the site
// registry — plus the store, when one is configured with WithStore.
func New(opts ...Option) *Engine {
	cfg := engineConfig{
		workers: defaultWorkers(),
		retry:   fault.DefaultRetryPolicy(),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.tracer == nil {
		cfg.tracer = obs.NewTracer(0)
	}
	if cfg.metrics == nil {
		cfg.metrics = obs.NewRegistry()
	}
	if cfg.sites == nil {
		cfg.sites = registry.New(registry.WithMetrics(cfg.metrics))
	}
	e := &Engine{
		workers: cfg.workers,
		retry:   cfg.retry,
		sites:   cfg.sites,
		store:   cfg.store,
		tracer:  cfg.tracer,
		reg:     cfg.metrics,
		hellos:  newHelloMemo(),
	}
	e.tracer.AddSink(obs.NewRegistrySink(e.reg))
	return e
}
