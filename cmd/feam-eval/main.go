// Command feam-eval runs the paper's full evaluation on the simulated
// testbed and regenerates its tables: Table I (MPI identification), Table II
// (site characteristics), Table III (prediction accuracy), Table IV
// (resolution impact), and the §VI.C statistics.
//
// Observability: -trace-out streams every pipeline span to a JSONL file,
// -metrics-out writes the latency histograms and event counters (Prometheus
// text exposition, or JSON when the path ends in .json), and -debug-addr
// serves pprof/expvar plus live /metrics and /trace endpoints while the
// evaluation runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/report"
	"feam/internal/server"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/vfs"
)

type evalConfig struct {
	table      int
	stats      bool
	effort     bool
	ablate     bool
	seed       int64
	workers    int
	traceOut   string
	metricsOut string
	debugAddr  string
}

func main() {
	var cfg evalConfig
	flag.IntVar(&cfg.table, "table", 0, "print a single table (1-4); 0 prints everything")
	flag.BoolVar(&cfg.stats, "stats", false, "print only the evaluation statistics")
	flag.BoolVar(&cfg.effort, "effort", false, "print only the user-effort comparison")
	flag.BoolVar(&cfg.ablate, "ablate", false, "run the mechanism ablations (slow: four full matrices)")
	flag.Int64Var(&cfg.seed, "seed", 2013, "simulation seed")
	flag.IntVar(&cfg.workers, "workers", 0, "evaluation workers (0 = one per site)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "stream pipeline spans to this file as JSON Lines")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write pipeline metrics to this file (Prometheus text; JSON when it ends in .json)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve pprof, expvar, /metrics and /trace on this address (e.g. localhost:6060)")
	flag.Parse()
	if err := run(cfg); err != nil {
		// The engine's sentinel errors say what failed without string
		// matching; distinct exit codes let scripts branch the same way.
		fmt.Fprintln(os.Stderr, "feam-eval:", err)
		switch {
		case errors.Is(err, feam.ErrSiteUnavailable):
			os.Exit(2)
		case errors.Is(err, feam.ErrProbeFailed):
			os.Exit(3)
		default:
			os.Exit(1)
		}
	}
}

func run(cfg evalConfig) error {
	// Tables I and II need no evaluation run.
	if cfg.table == 1 {
		fmt.Print(report.Table1())
		return nil
	}
	fmt.Fprintln(os.Stderr, "building testbed...")
	tb, err := testbed.Build()
	if err != nil {
		return err
	}
	if cfg.table == 2 {
		fmt.Print(report.Table2(tb))
		return nil
	}
	sim := execsim.NewSimulator(cfg.seed)
	fmt.Fprintln(os.Stderr, "compiling test set (NPB + SPEC MPI2007 across 26 stacks)...")
	ts, err := experiment.BuildTestSet(tb, sim)
	if err != nil {
		return err
	}
	if cfg.ablate {
		fmt.Fprintln(os.Stderr, "running mechanism ablations...")
		results, err := experiment.RunAblations(tb, ts, sim)
		if err != nil {
			return err
		}
		fmt.Print(report.Ablations(results))
		return nil
	}

	// Explicit layering: one metrics registry and tracer feed the persistent
	// store and the engine's sharded site registry (feam.New builds it over
	// the metrics registry), so the evaluation's survey traffic is cached,
	// counted, and persisted through the same layers the production
	// workflow uses.
	metricsReg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	st, err := store.Open(vfs.New(), "/feam/state",
		store.WithMetrics(metricsReg), store.WithTracer(tr))
	if err != nil {
		return err
	}
	eng := feam.New(
		feam.WithTracer(tr),
		feam.WithMetrics(metricsReg),
		feam.WithStore(st),
	)
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		eng.Tracer().AddSink(obs.NewJSONLSink(f))
	}
	if cfg.debugAddr != "" {
		go func() {
			handler := obs.DebugHandler(eng.Metrics(), eng.Tracer())
			srv := server.NewHTTPServer(cfg.debugAddr, handler)
			if err := server.ListenAndServe(context.Background(), srv, 0); err != nil {
				fmt.Fprintln(os.Stderr, "feam-eval: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (pprof, expvar, /metrics, /trace)\n", cfg.debugAddr)
	}

	fmt.Fprintf(os.Stderr, "running evaluation over %d migration pairs...\n",
		len(experiment.Migrations(tb, ts)))
	workers := cfg.workers
	if workers <= 0 {
		workers = len(tb.Sites)
	}
	ev, err := experiment.RunWithEngine(context.Background(), eng, tb, ts, sim, workers)
	if err != nil {
		return err
	}
	switch {
	case cfg.stats:
		fmt.Print(report.Stats(ev))
	case cfg.effort:
		fmt.Print(report.Effort(ev, tb))
	case cfg.table == 3:
		fmt.Print(report.Table3(ev))
		fmt.Println()
		fmt.Print(report.Latency(eng.Metrics()))
	case cfg.table == 4:
		fmt.Print(report.Table4(ev))
	default:
		fmt.Print(report.Table1())
		fmt.Println()
		fmt.Print(report.Table2(tb))
		fmt.Println()
		fmt.Print(report.Table3(ev))
		fmt.Println()
		fmt.Print(report.Table4(ev))
		fmt.Println()
		fmt.Print(report.Stats(ev))
		fmt.Println()
		fmt.Print(report.Effort(ev, tb))
		fmt.Println()
		fmt.Print(report.Latency(eng.Metrics()))
	}
	return writeMetrics(eng, cfg.metricsOut)
}

// writeMetrics exports the engine's metrics registry: JSON when the path
// ends in .json, Prometheus text exposition otherwise.
func writeMetrics(eng *feam.Engine, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return eng.Metrics().WriteJSON(f)
	}
	return eng.Metrics().WritePrometheus(f)
}
