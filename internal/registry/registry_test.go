package registry_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/fault"
	"feam/internal/libver"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/sitemodel"
)

// Kinds as the engine names them; the registry treats them as opaque.
const (
	survey = "survey"
	bdc    = "bdc"
	shard  = "shard"
)

func newSite(t testing.TB, name string) *sitemodel.Site {
	t.Helper()
	return sitemodel.New(name,
		sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "x86_64"},
		sitemodel.OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18", ReleaseFile: "/etc/redhat-release"},
		libver.Version{2, 5})
}

func TestRegisterLookupInvalidate(t *testing.T) {
	r := registry.New()
	site := newSite(t, "india")
	lock := r.SiteLock("india")

	env := &struct{ v int }{1}
	r.Store(survey, site, "", 42, env)
	if v, ok := r.Lookup(survey, site, "", 42); !ok || v != env {
		t.Fatal("stored survey not returned")
	}
	// Wrong fingerprint is a miss; the entry survives for the right one.
	if _, ok := r.Lookup(survey, site, "", 43); ok {
		t.Fatal("fingerprint mismatch must miss")
	}
	r.Invalidate("india")
	if _, ok := r.Lookup(survey, site, "", 42); ok {
		t.Fatal("invalidated survey still served")
	}
	// The site lock survives invalidation.
	if r.SiteLock("india") != lock {
		t.Fatal("Invalidate replaced the site lock")
	}
}

// TestInvalidateDropsEveryKind: one entry type holds every kind, so
// invalidating a site drops all of its entries — and nothing of other
// sites or site-independent entries — and Stats counts per kind.
func TestInvalidateDropsEveryKind(t *testing.T) {
	r := registry.New()
	india, fir := newSite(t, "india"), newSite(t, "fir")
	for _, site := range []*sitemodel.Site{india, fir} {
		r.Store(survey, site, "", 1, "env")
		r.Store(shard, site, "/lib64", 2, "lib64")
		r.Store(shard, site, "/opt/a", 3, "opt")
	}
	r.Store(bdc, nil, "hash/app", 0, "desc")
	st := r.Stats()
	if st.Sites != 2 || st.Entries[survey] != 2 || st.Entries[shard] != 4 || st.Entries[bdc] != 1 {
		t.Fatalf("stats before invalidation = %+v", st)
	}
	// A key is scoped to its kind: a shard entry never answers a survey.
	if _, ok := r.Lookup(survey, india, "/lib64", 2); ok {
		t.Fatal("shard entry served as a survey")
	}
	r.Invalidate("india")
	for _, key := range []string{"", "/lib64", "/opt/a"} {
		kind := shard
		if key == "" {
			kind = survey
		}
		if _, ok := r.Lookup(kind, india, key, 1); ok {
			t.Fatalf("india %s %q survived invalidation", kind, key)
		}
	}
	if _, ok := r.Lookup(shard, fir, "/opt/a", 3); !ok {
		t.Fatal("invalidating india dropped fir's shard")
	}
	if _, ok := r.Lookup(bdc, nil, "hash/app", 0); !ok {
		t.Fatal("invalidating india dropped a site-independent entry")
	}
	st = r.Stats()
	if st.Sites != 1 || st.Entries[survey] != 1 || st.Entries[shard] != 2 || st.Entries[bdc] != 1 {
		t.Fatalf("stats after invalidation = %+v", st)
	}
}

// TestGenerationInvalidation: a survey cached under a fingerprint derived
// from the site's vfs generation reads as a miss after any filesystem
// mutation — the registry never watches sites, the key does the work.
func TestGenerationInvalidation(t *testing.T) {
	r := registry.New()
	site := newSite(t, "ranger")
	fp := site.FS().Generation()
	r.Store(survey, site, "", fp, "survey@gen")
	if _, ok := r.Lookup(survey, site, "", site.FS().Generation()); !ok {
		t.Fatal("unchanged generation should hit")
	}
	if err := site.FS().WriteFile("/tmp/mutation", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(survey, site, "", site.FS().Generation()); ok {
		t.Fatal("generation bump must invalidate the cached survey")
	}
}

// TestDistinctSiteObjectsNeverShare: two Site objects with one name (and
// possibly colliding fingerprints) must not share a survey entry.
func TestDistinctSiteObjectsNeverShare(t *testing.T) {
	r := registry.New()
	a, b := newSite(t, "twin"), newSite(t, "twin")
	r.Store(survey, a, "", 7, "a-survey")
	if _, ok := r.Lookup(survey, b, "", 7); ok {
		t.Fatal("entry for site object a served to site object b")
	}
}

// TestShardEviction: inserting past a shard's capacity evicts least
// recently used entries and counts them (registry_evict).
func TestShardEviction(t *testing.T) {
	metrics := obs.NewRegistry()
	r := registry.New(registry.WithShards(1), registry.WithShardCapacity(4),
		registry.WithMetrics(metrics))
	sites := make([]*sitemodel.Site, 6)
	for i := range sites {
		sites[i] = newSite(t, fmt.Sprintf("site-%d", i))
		r.Store(survey, sites[i], "", uint64(i), i)
	}
	st := r.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.Entries[survey] != 4 {
		t.Fatalf("cached surveys = %d, want 4 (capacity)", st.Entries[survey])
	}
	if got := metrics.Counter("registry_evict").Load(); got != 2 {
		t.Fatalf("registry_evict counter = %d, want 2", got)
	}
	// Oldest entries evicted first.
	if _, ok := r.Lookup(survey, sites[0], "", 0); ok {
		t.Fatal("LRU entry site-0 should have been evicted")
	}
	if _, ok := r.Lookup(survey, sites[5], "", 5); !ok {
		t.Fatal("most recent entry missing")
	}
}

// TestLRUTouchOrder: a lookup refreshes recency, so the untouched entry is
// the one evicted.
func TestLRUTouchOrder(t *testing.T) {
	r := registry.New(registry.WithShards(1), registry.WithShardCapacity(2))
	a, b, c := newSite(t, "a"), newSite(t, "b"), newSite(t, "c")
	r.Store(survey, a, "", 1, "a")
	r.Store(survey, b, "", 2, "b")
	if _, ok := r.Lookup(survey, a, "", 1); !ok { // touch a: b becomes LRU
		t.Fatal("expected hit on a")
	}
	r.Store(survey, c, "", 3, "c") // evicts b
	if _, ok := r.Lookup(survey, b, "", 2); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := r.Lookup(survey, a, "", 1); !ok {
		t.Fatal("touched entry a evicted out of order")
	}
}

func TestDescriptionCache(t *testing.T) {
	metrics := obs.NewRegistry()
	r := registry.New(registry.WithMetrics(metrics))
	r.Store(bdc, nil, "hash1/app", 0, "desc1")
	if v, ok := r.Lookup(bdc, nil, "hash1/app", 0); !ok || v != "desc1" {
		t.Fatal("stored description not returned")
	}
	if _, ok := r.Lookup(bdc, nil, "hash1/other", 0); ok {
		t.Fatal("name is part of the description key")
	}
	if _, ok := r.Lookup(bdc, nil, "hash2/app", 0); ok {
		t.Fatal("hash is part of the description key")
	}
	if hits := metrics.Counter("registry_hit").Load(); hits != 1 {
		t.Fatalf("registry_hit = %d, want 1", hits)
	}
	if misses := metrics.Counter("registry_miss").Load(); misses != 2 {
		t.Fatalf("registry_miss = %d, want 2", misses)
	}
}

// TestSiteLockIdentity: one lock per name, created on demand, stable
// while the site's entries come and go.
func TestSiteLockIdentity(t *testing.T) {
	r := registry.New()
	l1 := r.SiteLock("forge")
	l2 := r.SiteLock("forge")
	if l1 != l2 {
		t.Fatal("SiteLock must return one lock per name")
	}
	if r.SiteLock("other") == l1 {
		t.Fatal("distinct names must get distinct locks")
	}
	r.Store(survey, newSite(t, "forge"), "", 1, "env")
	r.Invalidate("forge")
	if r.SiteLock("forge") != l1 {
		t.Fatal("caching and invalidating entries must keep the pre-existing lock")
	}
}

// TestFaultHook: an injected fault turns lookups into misses and drops
// stores.
func TestFaultHook(t *testing.T) {
	script := &fault.Script{}
	r := registry.New(registry.WithFaultHook(fault.Hook(context.Background(), script)))
	site := newSite(t, "flaky")

	r.Store(survey, site, "", 9, "v")
	script.FailNext(fault.Transient, "lookup")
	if _, ok := r.Lookup(survey, site, "", 9); ok {
		t.Fatal("injected lookup fault must read as a miss")
	}
	if _, ok := r.Lookup(survey, site, "", 9); !ok {
		t.Fatal("entry must survive a faulted lookup")
	}
	script.FailNext(fault.Transient, "store")
	other := newSite(t, "flaky2")
	r.Store(survey, other, "", 1, "dropped")
	if _, ok := r.Lookup(survey, other, "", 1); ok {
		t.Fatal("faulted store must drop the entry")
	}
}

// TestConcurrentSharding: hammer every operation from many goroutines;
// run under -race this is the shard-locking proof.
func TestConcurrentSharding(t *testing.T) {
	r := registry.New(registry.WithShards(4), registry.WithShardCapacity(8))
	sites := make([]*sitemodel.Site, 16)
	for i := range sites {
		sites[i] = newSite(t, fmt.Sprintf("c-%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				site := sites[(seed+i)%len(sites)]
				switch i % 5 {
				case 0:
					r.Store(shard, site, "/lib64", uint64(i), i)
					r.Lookup(shard, site, "/lib64", uint64(i))
				case 1:
					r.Store(survey, site, "", uint64(i), i)
				case 2:
					r.Lookup(survey, site, "", uint64(i))
				case 3:
					key := fmt.Sprintf("h%d/%s", i%10, site.Name)
					r.Store(bdc, nil, key, 0, i)
					r.Lookup(bdc, nil, key, 0)
				case 4:
					r.Invalidate(site.Name)
					_ = r.SiteLock(site.Name)
				}
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if st.Entries[survey] > 4*8 {
		t.Fatalf("cached surveys = %d exceed total capacity", st.Entries[survey])
	}
}
