package main

import (
	"bytes"
	"testing"

	"feam/internal/scenario"
)

// TestFaultDemoIsDeterministic runs the -faults demo ten times on fresh
// engines and fleets with one seed: every run must print the same report,
// ranking included, although the ranking assesses sites concurrently.
func TestFaultDemoIsDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 10; run++ {
		eng, cleanup, err := buildEngine("", "")
		if err != nil {
			t.Fatal(err)
		}
		tb, err := scenario.BuildFleet(scenario.FleetSpec{Base: scenario.FleetBaseTable2})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = runFaults(&out, eng, tb, 0.25, 0.7, 7)
		cleanup()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = out.String()
			continue
		}
		if out.String() != first {
			t.Fatalf("run %d printed a different report:\n%s\nrun 0 printed:\n%s", run, out.String(), first)
		}
	}
}
