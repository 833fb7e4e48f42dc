package experiment

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"feam/internal/execsim"
	"feam/internal/feam"
)

func TestForEachRace(t *testing.T) {
	var count int64
	err := forEach(1000, 8, func(i int) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil || count != 1000 {
		t.Fatalf("count=%d err=%v", count, err)
	}
}

func TestParallelRunRaceSmall(t *testing.T) {
	tb := smallTestbed(t)
	sim := execsim.NewSimulator(7)
	ts, err := BuildTestSet(tb, sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithConcurrency(tb, ts, sim, 4); err != nil {
		t.Fatal(err)
	}
}

// TestSharedEngineRace drives a full concurrent experiment and concurrent
// site rankings through ONE engine at the same time. Under -race this
// exercises the BDC/EDC caches, the per-site locks and the observer list
// from every direction at once.
func TestSharedEngineRace(t *testing.T) {
	tb := smallTestbed(t)
	sim := execsim.NewSimulator(7)
	ts, err := BuildTestSet(tb, sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Binaries) == 0 {
		t.Fatal("empty test set")
	}
	bin := ts.Binaries[0]

	ctx := context.Background()
	eng := feam.New(feam.WithWorkers(len(tb.Sites)))

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := RunWithEngine(ctx, eng, tb, ts, sim, 4); err != nil {
			errs <- err
		}
	}()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			desc, err := eng.Describe(ctx, bin.Artifact.Bytes, bin.Path)
			if err != nil {
				errs <- err
				return
			}
			ranked := eng.RankSites(ctx, desc, bin.Artifact.Bytes, tb.Sites,
				feam.EvalOptions{Runner: NewSimProbeRunner(sim)})
			for _, a := range ranked {
				if a.Err != nil {
					errs <- a.Err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
