package feam

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"math/bits"
	"strconv"

	"feam/internal/abicheck"
	"feam/internal/sitemodel"
)

// The derived-data layer: the one way the engine keeps what it derives
// from sites and binaries. A value is identified by its kind, the site it
// was derived from (nil for site-independent values) and a kind-specific
// key, and it is valid only under the stamp it was computed for. Every
// kind goes through one path: look the value up in the registry, then in
// the store (a store hit is kept in the registry), compute it on a miss,
// then keep it in the registry and persist it best-effort. Spans stay
// with the callers.
//
// The kinds, each with its key and stamp rule:
//
//	kind      site  key                  stamp                              persisted
//	survey    yes   —                    siteFingerprint                    yes, plus the site record
//	bdc       no    content hash + name  —                                  yes
//	shard     yes   shard root           the root's tree stamp              yes
//	symindex  yes   —                    contentStamp                       yes, as an abicheck.Snapshot
//	roots     yes   —                    contentStamp                       no
//	mpicc     yes   —                    contentStamp                       no
//	system    yes   —                    systemStamp (live when unreadable) no
var (
	surveyKind   = &derivedKind[*EnvironmentDescription]{name: KindSurvey, codec: jsonCodec[EnvironmentDescription]()}
	descKind     = &derivedKind[*BinaryDescription]{name: KindDescription, codec: jsonCodec[BinaryDescription]()}
	shardKind    = &derivedKind[*shardRecord]{name: KindShard, codec: jsonCodec[shardRecord]()}
	symIndexKind = &derivedKind[*abicheck.Index]{name: KindSymIndex, codec: &recordCodec[*abicheck.Index]{
		save: func(ix *abicheck.Index) any { return ix.Snapshot() },
		load: func(raw json.RawMessage) (*abicheck.Index, error) {
			var snap abicheck.Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				return nil, err
			}
			return abicheck.FromSnapshot(&snap), nil
		},
	}}
	rootsKind  = &derivedKind[[]string]{name: "roots"}
	mpiccKind  = &derivedKind[[]string]{name: "mpicc"}
	systemKind = &derivedKind[*sysRecord]{name: "system"}
)

// derivedKind declares one kind of derived value: its registry kind,
// which is also its store namespace when codec is set (nil: the value
// lives in the registry only).
type derivedKind[T any] struct {
	name  string
	codec *recordCodec[T]
}

// recordCodec converts a persisted kind's values to and from the JSON
// value its store records carry.
type recordCodec[T any] struct {
	save func(T) any
	load func(json.RawMessage) (T, error)
}

// jsonCodec persists a value as its own JSON encoding.
func jsonCodec[V any]() *recordCodec[*V] {
	return &recordCodec[*V]{
		save: func(v *V) any { return v },
		load: func(raw json.RawMessage) (*V, error) {
			v := new(V)
			return v, json.Unmarshal(raw, v)
		},
	}
}

// derivedRecord is the envelope every persisted value is stored in: the
// site and key it was computed for and the stamp it was computed under.
// A record whose identity or stamp differs from the lookup's is a miss,
// exactly like a stale registry entry.
type derivedRecord struct {
	Site  string `json:"site,omitempty"`
	Key   string `json:"key,omitempty"`
	Stamp uint64 `json:"stamp"`
	Value any    `json:"value"`
}

// contentStamp is the stamp of values that depend on the environment and
// the filesystem's namespace and contents but never on extended
// attributes, so attribute churn (banner updates during a C-library
// rollout) leaves them valid.
func contentStamp(site *sitemodel.Site) uint64 {
	return site.EnvFingerprint() ^ bits.RotateLeft64(site.FS().ContentGeneration(), 32)
}

// systemStamp is the system surface's stamp, from the tree stamps of
// /proc and /etc; ok=false when either cannot be read (fault injection,
// outages), so failures surface from the live path.
func systemStamp(site *sitemodel.Site) (uint64, bool) {
	ps, perr := site.FS().TreeStamp("/proc")
	es, eerr := site.FS().TreeStamp("/etc")
	if perr != nil || eerr != nil {
		return 0, false
	}
	return ps ^ bits.RotateLeft64(es, 32), true
}

// siteName is the site a value's record names ("" for a site-independent
// value).
func siteName(site *sitemodel.Site) string {
	if site == nil {
		return ""
	}
	return site.Name
}

// recordKey is a value's store key: the site name, with the key's FNV
// hash appended when there is one (shard roots are paths); a
// site-independent value is stored under its key.
func recordKey(site *sitemodel.Site, key string) string {
	switch {
	case site == nil:
		return key
	case key == "":
		return site.Name
	}
	h := fnv.New64a()
	io.WriteString(h, key)
	return site.Name + "/" + strconv.FormatUint(h.Sum64(), 16)
}

// fetchDerived looks a value up in the registry, then in the store, and
// reports where it was found: "registry", "store", or "" for a miss.
func fetchDerived[T any](e *Engine, k *derivedKind[T], site *sitemodel.Site, key string, stamp uint64) (T, string) {
	if v, ok := e.sites.Lookup(k.name, site, key, stamp); ok {
		return v.(T), "registry"
	}
	if v, ok := loadDerived(e, k, site, key, stamp); ok {
		e.sites.Store(k.name, site, key, stamp, v)
		return v, "store"
	}
	var zero T
	return zero, ""
}

// loadDerived reads a persisted value whose record matches the lookup's
// identity and stamp. Absent, stale, and corrupt records are all misses.
func loadDerived[T any](e *Engine, k *derivedKind[T], site *sitemodel.Site, key string, stamp uint64) (T, bool) {
	var zero T
	if k.codec == nil || e.store == nil {
		return zero, false
	}
	payload, ok, _ := e.store.Get(k.name, recordKey(site, key))
	if !ok {
		return zero, false
	}
	var raw json.RawMessage
	rec := derivedRecord{Value: &raw}
	if err := json.Unmarshal(payload, &rec); err != nil ||
		rec.Site != siteName(site) || rec.Key != key || rec.Stamp != stamp {
		return zero, false
	}
	v, err := k.codec.load(raw)
	if err != nil {
		return zero, false
	}
	return v, true
}

// keepDerived caches a computed value in the registry and persists it.
// Persistence is best-effort: a store fault never fails the computation
// that produced the value.
func keepDerived[T any](e *Engine, k *derivedKind[T], site *sitemodel.Site, key string, stamp uint64, v T) {
	e.sites.Store(k.name, site, key, stamp, v)
	if k.codec == nil || e.store == nil {
		return
	}
	rec := derivedRecord{Site: siteName(site), Key: key, Stamp: stamp, Value: k.codec.save(v)}
	if payload, err := json.Marshal(rec); err == nil {
		_ = e.store.Put(k.name, recordKey(site, key), payload)
	}
}

// deriveCached is the whole path for one value: fetch it, or compute and
// keep it.
func deriveCached[T any](e *Engine, k *derivedKind[T], site *sitemodel.Site, key string, stamp uint64, compute func() (T, error)) (T, error) {
	if v, source := fetchDerived(e, k, site, key, stamp); source != "" {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	keepDerived(e, k, site, key, stamp, v)
	return v, nil
}
