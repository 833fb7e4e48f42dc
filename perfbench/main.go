// Command perfbench is the FEAM benchmark: one seeded workload per run,
// driven in process against the public serving and engine entry points,
// with every verdict checked against an answer known by construction.
//
// Usage:
//
//	perfbench --workload rank-fleet --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run attaches an in-memory span
// sink to the engine's tracer and reports the per-layer metrics instead,
// writing the spans to .bench_build/traces/. A human-readable report,
// including the input digest and the sample count, goes to standard error.
//
// The workloads, and why each was chosen, are listed in workloads below
// and in BENCHMARK.json; METRICS.md in this directory maps every
// per-layer metric to the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed runs use when --seed is not given;
// heldOutSeed is reserved for confirming a claimed gain on inputs the
// change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 20130901
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	// traceDir receives the traced run's spans.
	traceDir string
}

func main() {
	cfg := config{traceDir: filepath.Join(".bench_build", "traces")}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", defaultSeed,
		fmt.Sprintf("input seed; confirm a claimed gain on the held-out seed %d too", heldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink the fleet and the warm-up for a quick self-check")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if flag.NArg() > 0 || traceFlag < 0 || traceFlag > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
