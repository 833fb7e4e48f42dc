package scenario

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// fleetHeapBudget bounds the heap the isa-mix fleet may add. Its 120 sites
// hold 933 MB of files but only 15.6 MB of distinct contents; a fleet
// that stores one copy of each distinct library image stays near that
// floor, and one that copies images per site is sixty times over it.
const fleetHeapBudget = 64 << 20

// TestFleetHeapBudget builds isa-mix's 120-site fleet and bounds the live
// heap it adds, so sharing library images across a fleet cannot quietly
// regress. It reads the process heap, so it must not run in parallel.
func TestFleetHeapBudget(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(scenarioDir, "isa-mix.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadFleet(data)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb, err := BuildFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(tb.Sites) != 120 {
		t.Fatalf("isa-mix fleet has %d sites, want 120", len(tb.Sites))
	}
	added := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("isa-mix fleet: %d sites, %.1f MB of live heap", len(tb.Sites), float64(added)/(1<<20))
	if added > fleetHeapBudget {
		t.Errorf("isa-mix fleet adds %.1f MB of live heap, budget %d MB",
			float64(added)/(1<<20), fleetHeapBudget>>20)
	}
	runtime.KeepAlive(tb)
}
