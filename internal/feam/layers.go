package feam

import (
	"encoding/json"
	"fmt"
	"sync"

	"feam/internal/sitemodel"
)

// SiteRegistry is the engine's in-memory state layer: per-site
// serialization locks and one memo of derived values. internal/registry
// provides the sharded production implementation; the engine itself holds
// no cache maps or site tables, so any number of engines sharing one
// SiteRegistry see one coherent fleet.
type SiteRegistry interface {
	SiteLock(name string) *sync.Mutex
	// Lookup returns the value of a kind (derived.go declares the kinds)
	// cached for (site, key), when it was computed for that same site
	// object under stamp; a nil site marks a site-independent value.
	// Store caches one under its stamp.
	Lookup(kind string, site *sitemodel.Site, key string, stamp uint64) (any, bool)
	Store(kind string, site *sitemodel.Site, key string, stamp uint64, value any)
	// Invalidate drops every value cached for a site name.
	Invalidate(name string)
}

// Store is the engine's persistence layer: namespaced records a restarted
// process rehydrates instead of re-surveying. Get's ok=false means absent
// or damaged — either way the engine recomputes; err is diagnostic only.
// internal/store provides the versioned, atomic-rename implementation.
type Store interface {
	Put(kind, key string, payload []byte) error
	Get(kind, key string) ([]byte, bool, error)
	List(kind string) ([]string, error)
	Delete(kind, key string) error
}

// Store record namespaces the engine writes. The derived kinds (survey,
// bdc, shard, symindex) store one derivedRecord envelope per value, with
// the identity and stamp it was computed for; a stale record reads as a
// miss and the value is recomputed.
const (
	// KindSurvey holds one survey per site name.
	KindSurvey = "survey"
	// KindDescription holds one *BinaryDescription per content hash+name.
	KindDescription = "bdc"
	// KindBundle holds one encoded Bundle per application content hash.
	KindBundle = "bundle"
	// KindSite holds one siteRecord per site name (fleet inventory).
	KindSite = "site"
	// KindShard holds one shardRecord per site name + fnv-hashed shard
	// root, stamped by the root's tree stamp.
	KindShard = "shard"
	// KindSymIndex holds one abicheck.Snapshot per site name, stamped
	// with the env fingerprint + vfs content generation it was built
	// under.
	KindSymIndex = "symindex"
)

// siteRecord is the persisted fleet-inventory entry for one surveyed site.
type siteRecord struct {
	Name       string `json:"name"`
	SystemType string `json:"system_type,omitempty"`
	Arch       string `json:"arch,omitempty"`
	OS         string `json:"os,omitempty"`
	Glibc      string `json:"glibc,omitempty"`
	Cores      int    `json:"cores,omitempty"`
}

// PutSiteRecord writes a site's fleet-inventory record: the one site
// record format, written after every real survey and by a server's
// shutdown commit.
func PutSiteRecord(st Store, site *sitemodel.Site) error {
	payload, err := json.Marshal(siteRecord{
		Name:       site.Name,
		SystemType: site.SystemType,
		Arch:       site.Arch.CPUName,
		OS:         site.OS.Distro + " " + site.OS.Version,
		Glibc:      site.Glibc.String(),
		Cores:      site.Cores,
	})
	if err != nil {
		return err
	}
	return st.Put(KindSite, site.Name, payload)
}

// SaveBundle persists a bundle keyed by its application's content hash so
// a restarted process can skip the source phase. Requires a store.
func (e *Engine) SaveBundle(b *Bundle) error {
	if e.store == nil {
		//lint:ignore faultwrap API misuse by the caller, not a pipeline fault
		return fmt.Errorf("feam: SaveBundle requires an engine with a store (WithStore)")
	}
	if b == nil || b.App == nil || b.App.ContentHash == "" {
		//lint:ignore faultwrap API misuse by the caller, not a pipeline fault
		return fmt.Errorf("feam: SaveBundle requires a bundle with a described application")
	}
	data, err := EncodeBundle(b)
	if err != nil {
		return err
	}
	return e.store.Put(KindBundle, b.App.ContentHash, data)
}

// LoadBundle rehydrates a persisted bundle by application content hash.
// ok=false means no usable record (absent, corrupt, or undecodable).
func (e *Engine) LoadBundle(hash string) (*Bundle, bool, error) {
	if e.store == nil {
		return nil, false, nil
	}
	data, ok, err := e.store.Get(KindBundle, hash)
	if !ok {
		return nil, false, err
	}
	b, derr := DecodeBundle(data)
	if derr != nil {
		return nil, false, derr
	}
	return b, true, nil
}

// StoredSites lists the fleet-inventory records persisted by surveys —
// the site names a restarted process knows about before touching any
// site. Without a store the list is empty.
func (e *Engine) StoredSites() ([]string, error) {
	if e.store == nil {
		return nil, nil
	}
	return e.store.List(KindSite)
}

// Registry returns the engine's site-state layer (never nil).
func (e *Engine) Registry() SiteRegistry { return e.sites }

// Store returns the engine's persistence layer (nil unless configured
// with WithStore).
func (e *Engine) Store() Store { return e.store }
