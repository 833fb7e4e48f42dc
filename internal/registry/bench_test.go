package registry_test

import (
	"fmt"
	"testing"

	"feam/internal/registry"
	"feam/internal/sitemodel"
)

func benchSites(b *testing.B, n int) []*sitemodel.Site {
	b.Helper()
	sites := make([]*sitemodel.Site, n)
	for i := range sites {
		sites[i] = newSite(b, fmt.Sprintf("bench-%d", i))
	}
	return sites
}

// BenchmarkRegistryLookupSurvey measures the warm read path — the
// operation every cached Predict pays — and reports the achieved hit rate,
// which BENCH_PR6.json records as the registry's effectiveness number.
func BenchmarkRegistryLookupSurvey(b *testing.B) {
	r := registry.New()
	sites := benchSites(b, 32)
	for i, s := range sites {
		r.Store("survey", s, "", uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sites[i%len(sites)]
		if _, ok := r.Lookup("survey", s, "", uint64(i%len(sites))); !ok {
			b.Fatal("warm lookup missed")
		}
	}
	st := r.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
}

// BenchmarkRegistryStoreSurvey measures the write path with LRU eviction
// pressure: the working set is twice the capacity, so every store evicts.
func BenchmarkRegistryStoreSurvey(b *testing.B) {
	r := registry.New(registry.WithShards(4), registry.WithShardCapacity(8))
	sites := benchSites(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Store("survey", sites[i%len(sites)], "", uint64(i), i)
	}
	b.ReportMetric(float64(r.Stats().Evictions)/float64(b.N), "evictions/op")
}

// BenchmarkRegistryParallel measures contended mixed traffic across all
// shards — the two-engines-one-registry deployment shape — and reports the
// aggregate hit rate under contention.
func BenchmarkRegistryParallel(b *testing.B) {
	r := registry.New()
	sites := benchSites(b, 64)
	for i, s := range sites {
		r.Store("survey", s, "", uint64(i), i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s := sites[i%len(sites)]
			if i%8 == 0 {
				r.Store("survey", s, "", uint64(i%len(sites)), i)
			} else {
				r.Lookup("survey", s, "", uint64(i%len(sites)))
			}
			i++
		}
	})
	st := r.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
}

// BenchmarkRegistryShardCount contrasts a single global lock (1 shard)
// with the default sharding under parallel load; the gap is the reason the
// registry shards at all.
func BenchmarkRegistryShardCount(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			r := registry.New(registry.WithShards(shards))
			sites := benchSites(b, 64)
			for i, s := range sites {
				r.Store("survey", s, "", uint64(i), i)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					r.Lookup("survey", sites[i%len(sites)], "", uint64(i%len(sites)))
					i++
				}
			})
		})
	}
}
