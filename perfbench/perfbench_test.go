package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEmitsEveryMetric runs every workload of BENCHMARK.json in smoke
// mode, untraced and traced, and checks that each declared metric is
// reported with its declared unit and that every op was answered
// correctly.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: defaultSeed, seconds: 0.3, trace: trace, smoke: true, traceDir: t.TempDir()}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCheckerFlagsWrongAnswer hands the checkers a deliberately wrong
// expected answer and expects a failed op, on the serving path and on the
// engine path.
func TestCheckerFlagsWrongAnswer(t *testing.T) {
	ctx := context.Background()

	p := &uploadBench{}
	if err := p.generate(defaultSeed, smokeScale, sha256.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.build(); err != nil {
		t.Fatal(err)
	}
	if r := p.op(ctx, nil, 0, 0); r.cause != causeNone {
		t.Fatalf("upload op with the true answer failed: %s", r.detail)
	}
	first := p.seq[0][0]
	p.want[first.bin][first.site] = flip(p.want[first.bin][first.site])
	if r := p.op(ctx, nil, 0, 0); r.cause != causeWrong {
		t.Errorf("upload op with a wrong expected answer: cause %s, want %s", causeNames[r.cause], causeNames[causeWrong])
	}

	rb := &rankBench{}
	if err := rb.generate(defaultSeed, smokeScale, sha256.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.build(); err != nil {
		t.Fatal(err)
	}
	if err := rb.cold(ctx); err != nil {
		t.Fatalf("rank cold pass with the true answers failed: %v", err)
	}
	bi := rb.seq[0]
	rb.want[bi][len(rb.want[bi])-1] = flip(rb.want[bi][len(rb.want[bi])-1])
	if r := rb.op(ctx, nil, 0, 0); r.cause != causeWrong {
		t.Errorf("rank op with a wrong expected answer: cause %s, want %s", causeNames[r.cause], causeNames[causeWrong])
	}
}

func flip(v verdict) verdict {
	if v.ready {
		return verdict{failed: "ISA compatibility"}
	}
	return ready
}

// TestEqualSeedsEqualDigests checks that inputs are a function of the
// seed: the same seed renders the same digest, another seed another.
func TestEqualSeedsEqualDigests(t *testing.T) {
	digest := func(name string, seed int64) string {
		h := sha256.New()
		if err := workloads[name]().generate(seed, smokeScale, h); err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		return string(h.Sum(nil))
	}
	for name := range workloads {
		a, b, other := digest(name, 7), digest(name, 7), digest(name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different digests", name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", name)
		}
	}
}
