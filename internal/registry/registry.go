// Package registry is FEAM's shared site-state layer: a sharded, bounded,
// concurrency-safe registry owning the per-site serialization locks and
// one memo of everything the engine derives from sites and binaries —
// surveys (EDC), binary descriptions (BDC), survey shards, symbol indexes
// and the smaller values a survey is assembled from.
//
// The paper's headline workload is assessing many (binary, site) pairs
// across a fleet; FEAM-as-a-service runs many prediction engines over that
// fleet concurrently. The registry is the piece that makes the engines
// stateless: every engine reads and writes derived state here, so two
// engines sharing one registry see one coherent fleet and serialize
// site-mutating work on one set of locks.
//
// Layout: a fixed number of shards, each guarded by its own RWMutex, each
// holding a slice of the lock table plus one LRU-bounded cache of entries.
// An entry is keyed by (kind, site name, key) and validated by the site
// object and the stamp it was computed for, so any site mutation that
// moves the caller's stamp reads as a miss without the registry ever
// watching the site. Evictions, hits, and misses are counted into an
// optional obs metrics registry (`registry_hit`, `registry_miss`,
// `registry_evict`).
package registry

import (
	"container/list"
	"sync"
	"sync/atomic"

	"feam/internal/obs"
	"feam/internal/sitemodel"
)

// Defaults: shard count balances lock contention against per-shard LRU
// bookkeeping; capacity bounds each shard's cache (all kinds share one
// LRU list) far above a testbed's working set.
const (
	DefaultShards        = 16
	DefaultShardCapacity = 256
)

// Option configures a Registry at construction.
type Option func(*Registry)

// WithShards sets the fixed shard count (minimum 1).
func WithShards(n int) Option {
	return func(r *Registry) {
		if n >= 1 {
			r.nshards = n
		}
	}
}

// WithShardCapacity bounds each shard's cache entries (minimum 1);
// insertion beyond the bound evicts the shard's least recently used entry.
func WithShardCapacity(n int) Option {
	return func(r *Registry) {
		if n >= 1 {
			r.capacity = n
		}
	}
}

// WithMetrics wires hit/miss/eviction counters into an obs registry
// (`registry_hit`, `registry_miss`, `registry_evict`).
func WithMetrics(m *obs.Registry) Option {
	return func(r *Registry) { r.metrics = m }
}

// WithFaultHook installs a fault-injection seam consulted before every
// lookup, store and invalidation; fault.Hook adapts a fault.Injector to
// it. A failed lookup reads as a cache miss, a failed store drops the
// entry, and a failed invalidation keeps the entries.
func WithFaultHook(h func(op, key string) error) Option {
	return func(r *Registry) { r.hook = h }
}

// Registry is the sharded site-state layer. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Registry struct {
	nshards  int
	capacity int
	shards   []shard
	metrics  *obs.Registry
	hook     func(op, key string) error

	hits, misses, evictions atomic.Int64
	// Exported counters are resolved once at construction so the hot
	// lookup path never takes the metrics registry's name-lookup lock.
	hitCtr, missCtr, evictCtr *obs.Counter
}

// shard is one lock domain: a slice of the lock table plus the
// LRU-bounded entries of every kind. The mutex is a leaf lock — nothing
// blocking (surveys, probes, store I/O) may run while it is held.
type shard struct {
	mu      sync.RWMutex
	locks   map[string]*sync.Mutex
	entries map[entryKey]*list.Element
	lru     list.List
}

// entryKey identifies one cached value: its kind, the name of the site it
// was derived from ("" for site-independent values) and a kind-specific
// key.
type entryKey struct{ kind, site, key string }

// entry is one cached value with the site object and stamp it was
// computed for. The site pointer comparison keeps two distinct Site
// objects sharing a name from ever sharing an entry.
type entry struct {
	id    entryKey
	site  *sitemodel.Site
	stamp uint64
	value any
}

// New returns a registry with DefaultShards shards of DefaultShardCapacity
// entries unless configured otherwise.
func New(opts ...Option) *Registry {
	r := &Registry{nshards: DefaultShards, capacity: DefaultShardCapacity}
	for _, opt := range opts {
		opt(r)
	}
	r.shards = make([]shard, r.nshards)
	for i := range r.shards {
		r.shards[i].locks = map[string]*sync.Mutex{}
		r.shards[i].entries = map[entryKey]*list.Element{}
	}
	if r.metrics != nil {
		r.hitCtr = r.metrics.Counter("registry_hit")
		r.missCtr = r.metrics.Counter("registry_miss")
		r.evictCtr = r.metrics.Counter("registry_evict")
	}
	return r
}

// shardFor hashes a name (FNV-64a, inline so a lookup allocates nothing)
// onto its shard.
func (r *Registry) shardFor(name string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return &r.shards[h%uint64(len(r.shards))]
}

// place resolves an entry's identity and lock domain: site-bound entries
// live in their site's shard, so Invalidate finds every kind of a site in
// one place; site-independent entries spread by key.
func (r *Registry) place(kind string, site *sitemodel.Site, key string) (entryKey, *shard) {
	if site == nil {
		return entryKey{kind: kind, key: key}, r.shardFor(key)
	}
	return entryKey{kind: kind, site: site.Name, key: key}, r.shardFor(site.Name)
}

// fail consults the fault hook for one operation on an entry, naming it
// by its site (or, for a site-independent entry, its key).
func (r *Registry) fail(op string, id entryKey) error {
	if r.hook == nil {
		return nil
	}
	if id.site != "" {
		return r.hook(op, id.site)
	}
	return r.hook(op, id.key)
}

func (r *Registry) count(c *atomic.Int64, ctr *obs.Counter) {
	c.Add(1)
	if ctr != nil {
		ctr.Add(1)
	}
}

// SiteLock returns the serialization lock for a site name, creating it on
// first use. Everything that mutates a site's filesystem or environment
// must run under it when the registry is shared. Locks are never dropped,
// so a caller holding one stays correct across invalidations.
func (r *Registry) SiteLock(name string) *sync.Mutex {
	s := r.shardFor(name)
	s.mu.RLock()
	l, ok := s.locks[name]
	s.mu.RUnlock()
	if ok {
		return l
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok = s.locks[name]; !ok {
		l = &sync.Mutex{}
		s.locks[name] = l
	}
	return l
}

// Lookup returns the cached value of a kind for (site, key) when the
// entry was computed for the same site object under the same stamp; any
// mismatch — a mutation that moved the stamp, invalidation, eviction, or
// a different Site object sharing the name — is a miss. A nil site names
// a site-independent entry, identified by its key alone.
func (r *Registry) Lookup(kind string, site *sitemodel.Site, key string, stamp uint64) (any, bool) {
	id, s := r.place(kind, site, key)
	if r.fail("lookup", id) != nil {
		r.count(&r.misses, r.missCtr)
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[id]; ok {
		ent := el.Value.(*entry)
		if ent.site == site && ent.stamp == stamp {
			s.lru.MoveToFront(el)
			r.count(&r.hits, r.hitCtr)
			return ent.value, true
		}
	}
	r.count(&r.misses, r.missCtr)
	return nil, false
}

// Store caches a value of a kind for (site, key) under its stamp,
// replacing any entry of that identity and evicting the shard's least
// recently used entry when full.
func (r *Registry) Store(kind string, site *sitemodel.Site, key string, stamp uint64, value any) {
	id, s := r.place(kind, site, key)
	if r.fail("store", id) != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[id]; ok {
		ent := el.Value.(*entry)
		ent.site, ent.stamp, ent.value = site, stamp, value
		s.lru.MoveToFront(el)
		return
	}
	for s.lru.Len() >= r.capacity {
		el := s.lru.Back()
		s.lru.Remove(el)
		delete(s.entries, el.Value.(*entry).id)
		r.count(&r.evictions, r.evictCtr)
	}
	s.entries[id] = s.lru.PushFront(&entry{id: id, site: site, stamp: stamp, value: value})
}

// Invalidate drops every cached entry of a site, of every kind. The
// site's lock survives; normal mutations are caught by stamps, so this
// exists for callers that manage site state outside the site's
// filesystem and environment.
func (r *Registry) Invalidate(name string) {
	if r.fail("invalidate", entryKey{site: name}) != nil {
		return
	}
	s := r.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, el := range s.entries {
		if id.site == name {
			s.lru.Remove(el)
			delete(s.entries, id)
		}
	}
}

// Stats is a point-in-time summary of registry occupancy and traffic.
type Stats struct {
	// Sites counts the sites holding at least one entry.
	Sites int
	// Entries counts cached entries per kind.
	Entries   map[string]int
	Hits      int64
	Misses    int64
	Evictions int64
}

// Stats reports current occupancy plus lifetime hit/miss/eviction counts.
func (r *Registry) Stats() Stats {
	st := Stats{
		Entries:   map[string]int{},
		Hits:      r.hits.Load(),
		Misses:    r.misses.Load(),
		Evictions: r.evictions.Load(),
	}
	for i := range r.shards {
		s := &r.shards[i]
		sites := map[string]bool{}
		s.mu.RLock()
		for id := range s.entries {
			st.Entries[id.kind]++
			if id.site != "" {
				sites[id.site] = true
			}
		}
		s.mu.RUnlock()
		st.Sites += len(sites)
	}
	return st
}
