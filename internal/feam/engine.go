package feam

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"runtime"
	"sync"

	"feam/internal/fault"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/sitemodel"
)

// Engine is the stateless prediction core: the worker-pool width, the
// retry policy, and the observability wiring — configuration fixed at
// construction, never mutated — plus one pure-function memo of compiled
// hello worlds. All engine *state* (per-site locks, memoized derived
// values such as BDC and EDC results, persisted surveys and bundles)
// lives behind the SiteRegistry and Store layers, so any number of
// engines sharing one registry and store see one coherent fleet; the paper's headline use case — assessing many
// (binary, site) pairs — scales by adding engines, not by growing one.
//
// Concurrency contract: the engine is immutable and its layers are safe
// for concurrent use. Sites themselves are NOT internally synchronized —
// any caller running engine operations against the same site from
// multiple goroutines must hold SiteLock(site.Name) around them. RankSites
// does this itself; Predict and the phase runners leave it to the caller
// so a caller can group several operations (stage a binary, activate a
// stack, evaluate) into one critical section without deadlocking. Engines
// sharing one registry share one set of site locks, which is what makes
// cross-engine evaluation of one site safe.
type Engine struct {
	workers int
	retry   fault.RetryPolicy

	// sites is the in-memory state layer (never nil); store is the
	// optional persistence layer a restarted process rehydrates from.
	sites SiteRegistry
	store Store

	// tracer and reg are fixed at construction: every pipeline operation
	// emits spans through tracer, and reg holds the latency histograms and
	// event counters a registry sink derives from them. External observers
	// attach span sinks to the tracer or read the registry; there is no
	// separate callback vocabulary.
	tracer *obs.Tracer
	reg    *obs.Registry

	// hellos memoizes the native hello worlds testStack probes with. It
	// is a pure function of its key — compiled programs, never site state
	// — so engines sharing a registry still see one coherent fleet.
	hellos *helloMemo
}

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Tracer returns the engine's span tracer (never nil). Attach sinks for
// streaming export, or snapshot it for the ring buffer's recent history.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Metrics returns the engine's metrics registry (never nil): latency
// histograms per pipeline operation plus event counters, renderable as
// JSON or Prometheus text exposition format.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Workers returns the engine's RankSites fan-out width.
func (e *Engine) Workers() int { return e.workers }

// RetryPolicy returns the engine's transient-fault retry policy.
func (e *Engine) RetryPolicy() fault.RetryPolicy { return e.retry }

// SiteLock returns the registry's serialization lock for a site name,
// creating it on first use. Everything that mutates a site's filesystem or
// environment (stack activation, staging, probe runs) must run under it
// when the engine — or the registry — is shared across goroutines.
func (e *Engine) SiteLock(name string) *sync.Mutex {
	return e.sites.SiteLock(name)
}

// contentHash returns the hex SHA-256 of a binary image — the BDC cache key
// and the unique component of derived staging directories.
func contentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Describe is the memoized BDC: identical binary content described under
// the same name returns the registry-cached description, and with a store
// configured a restarted process rehydrates the record instead of
// re-parsing. The returned description is shared — callers must treat it
// as immutable.
func (e *Engine) Describe(ctx context.Context, data []byte, name string) (*BinaryDescription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := e.tracer.Start(obs.OpDescribe,
		obs.WithParent(obs.SpanFromContext(ctx)), obs.WithBinary(name))
	hash := contentHash(data)
	key := hash + "/" + name
	desc, source := fetchDerived(e, descKind, nil, key, 0)
	cacheEvent(sp, "bdc", name, source)
	if source != "" {
		sp.End(nil)
		return desc, nil
	}
	desc, err := describeBytes(data, name, hash)
	if err != nil {
		sp.End(err)
		return nil, err
	}
	keepDerived(e, descKind, nil, key, 0, desc)
	sp.End(nil)
	return desc, nil
}

// cacheEvent reports one memoized lookup of a component on a span: a hit
// with the layer that served it ("registry" or "store"), or a miss when
// source is empty.
func cacheEvent(sp *obs.Span, component, key, source string) {
	if source == "" {
		sp.Event(obs.EvCache, obs.AttrComponent, component, obs.AttrKey, key, obs.AttrHit, "false")
		return
	}
	sp.Event(obs.EvCache, obs.AttrComponent, component, obs.AttrKey, key,
		obs.AttrHit, "true", obs.AttrSource, source)
}

// siteFingerprint condenses everything discovery depends on into a cheap
// comparison value: the environment variables (stack activation mutates
// PATH/LD_LIBRARY_PATH/LOADEDMODULES through envmgmt) and the filesystem
// mutation generation (module files, installed libraries, staged copies).
func siteFingerprint(site *sitemodel.Site) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], site.EnvFingerprint())
	binary.LittleEndian.PutUint64(buf[8:], site.FS().Generation())
	h.Write(buf[:])
	return h.Sum64()
}

// Discover is the memoized EDC: repeat surveys of an unchanged site return
// the registry-cached environment description, and with a store configured
// a restarted process rehydrates the persisted survey instead of
// re-running discovery. The cache invalidates whenever the site's
// environment variables or filesystem change — loading a stack through
// envmgmt, staging libraries, or installing software all produce a fresh
// survey. The returned description is shared and must be treated as
// immutable.
func (e *Engine) Discover(ctx context.Context, site *sitemodel.Site) (*EnvironmentDescription, error) {
	env, _, err := e.discoverCached(ctx, site)
	return env, err
}

// discoverCached is Discover plus a cache-hit indicator (the phase runners
// report cached surveys at a fraction of the simulated cost). The lookup
// is traced as a registry span; an OpDiscover span is emitted only when a
// real survey runs, so "zero discover spans" is the observable proof that
// a process rehydrated instead of re-surveying.
func (e *Engine) discoverCached(ctx context.Context, site *sitemodel.Site) (*EnvironmentDescription, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	fp := siteFingerprint(site)
	lsp := e.tracer.Start(obs.OpRegistry,
		obs.WithParent(obs.SpanFromContext(ctx)), obs.WithSite(site.Name))
	env, source := fetchDerived(e, surveyKind, site, "", fp)
	cacheEvent(lsp, "edc", site.Name, source)
	lsp.End(nil)
	if source != "" {
		return env, true, nil
	}

	sp := e.tracer.Start(obs.OpDiscover,
		obs.WithParent(obs.SpanFromContext(ctx)), obs.WithSite(site.Name))
	env, err := e.surveySite(obs.ContextWithSpan(ctx, sp), site)
	if err != nil {
		sp.End(err)
		return nil, false, err
	}
	sp.End(nil)
	keepDerived(e, surveyKind, site, "", fp, env)
	if e.store != nil {
		_ = PutSiteRecord(e.store, site)
	}
	return env, false, nil
}

// InvalidateSite drops every value the registry holds for a site (its
// survey, shards and symbol index) and, when a store is configured,
// deletes the persisted survey record. Normal mutations are detected by fingerprint; this exists for
// callers that manage site state outside the site's filesystem and
// environment.
func (e *Engine) InvalidateSite(name string) {
	e.sites.Invalidate(name)
	if e.store != nil {
		_ = e.store.Delete(KindSurvey, name)
	}
}

// compile-time proof that the production registry satisfies the engine's
// state-layer contract.
var _ SiteRegistry = (*registry.Registry)(nil)
