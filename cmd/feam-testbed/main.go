// Command feam-testbed builds the simulated five-site testbed (Table II)
// and inspects it: site characteristics, what FEAM's Environment Discovery
// Component finds at each site, and the compile matrix of the test set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/fault"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/report"
	"feam/internal/scenario"
	"feam/internal/server"
	"feam/internal/sitemodel"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/vfs"
	"feam/internal/workload"
)

func main() {
	var (
		survey    = flag.Bool("survey", false, "run the EDC at every site and print what it discovers")
		matrix    = flag.Bool("matrix", false, "print the (code x stack) compile matrix")
		exportDir = flag.String("export", "", "write serialized site images (<site>.feamsite) into this directory")
		importOne = flag.String("import", "", "load a serialized site image and survey it")

		faults         = flag.Bool("faults", false, "rank all sites for a migrated binary under injected probe/staging faults")
		faultRate      = flag.Float64("fault-rate", 0.2, "per-operation fault probability for -faults")
		faultTransient = flag.Float64("fault-transient", 0.7, "fraction of injected faults that are transient (retryable)")
		faultSeed      = flag.Int64("fault-seed", 1, "deterministic fault-injection seed")

		traceOut   = flag.String("trace-out", "", "stream pipeline spans to this file as JSON Lines")
		metricsOut = flag.String("metrics-out", "", "write pipeline metrics to this file (Prometheus text; JSON when it ends in .json)")
		debugAddr  = flag.String("debug-addr", "", "serve pprof, expvar, /metrics and /trace on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	eng, cleanup, err := buildEngine(*traceOut, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "feam-testbed:", err)
		os.Exit(1)
	}
	defer cleanup()

	if *importOne != "" {
		if err := runImport(eng, *importOne); err != nil {
			fmt.Fprintln(os.Stderr, "feam-testbed:", err)
			os.Exit(1)
		}
		exportMetrics(eng, *metricsOut)
		return
	}
	// The five-site Table II fleet is built through the scenario fleet
	// builder, the single definition shared with feam-sim.
	tb, err := scenario.BuildFleet(scenario.FleetSpec{Base: scenario.FleetBaseTable2})
	if err != nil {
		fmt.Fprintln(os.Stderr, "feam-testbed:", err)
		os.Exit(1)
	}
	switch {
	case *survey:
		runSurvey(eng, tb)
	case *matrix:
		runMatrix(tb)
	case *faults:
		if err := runFaults(os.Stdout, eng, tb, *faultRate, *faultTransient, *faultSeed); err != nil {
			fmt.Fprintln(os.Stderr, "feam-testbed:", err)
			os.Exit(1)
		}
	case *exportDir != "":
		if err := runExport(tb, *exportDir); err != nil {
			fmt.Fprintln(os.Stderr, "feam-testbed:", err)
			os.Exit(1)
		}
	default:
		fmt.Print(report.Table2(tb))
	}
	exportMetrics(eng, *metricsOut)
}

// buildEngine constructs the tool's engine from its three layers — shared
// metrics and tracer, a sharded site registry, and a persistent store —
// with the requested observability wiring: a streaming span sink for
// -trace-out and a background debug server for -debug-addr. cleanup
// flushes and closes the trace file.
func buildEngine(traceOut, debugAddr string) (*feam.Engine, func(), error) {
	metricsReg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	st, err := store.Open(vfs.New(), "/feam/state",
		store.WithMetrics(metricsReg), store.WithTracer(tr))
	if err != nil {
		return nil, nil, err
	}
	eng := feam.New(
		feam.WithTracer(tr),
		feam.WithMetrics(metricsReg),
		feam.WithStore(st),
	)
	cleanup := func() {}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, nil, err
		}
		eng.Tracer().AddSink(obs.NewJSONLSink(f))
		cleanup = func() { f.Close() }
	}
	if debugAddr != "" {
		go func() {
			handler := obs.DebugHandler(eng.Metrics(), eng.Tracer())
			srv := server.NewHTTPServer(debugAddr, handler)
			if err := server.ListenAndServe(context.Background(), srv, 0); err != nil {
				fmt.Fprintln(os.Stderr, "feam-testbed: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (pprof, expvar, /metrics, /trace)\n", debugAddr)
	}
	return eng, cleanup, nil
}

// exportMetrics writes the engine's registry when -metrics-out was given:
// JSON for .json paths, Prometheus text exposition otherwise.
func exportMetrics(eng *feam.Engine, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "feam-testbed:", err)
		return
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = eng.Metrics().WriteJSON(f)
	} else {
		err = eng.Metrics().WritePrometheus(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "feam-testbed:", err)
	}
}

// runFaults demonstrates the engine's fault tolerance: it builds a bundle
// for one migrated binary, then ranks every other site while a
// deterministic injector fails a fraction of probe runs and staging
// filesystem operations. Transient faults are retried with backoff;
// permanent ones roll staging back atomically or degrade the site to an
// assessment carrying its error — the survey itself always completes.
// Each target site has a policy of its own, seeded by fault.SiteSeed, so
// a seed gives one report however the ranking's workers interleave.
func runFaults(w io.Writer, eng *feam.Engine, tb *testbed.Testbed, rate, transientFrac float64, seed int64) error {
	ctx := context.Background()
	const (
		from     = "ranger"
		stackKey = "mvapich2-1.2-gnu"
	)
	src := tb.ByName[from]
	rec := src.FindStack(stackKey)
	if rec == nil {
		return fmt.Errorf("no stack %q at %s", stackKey, from)
	}
	sim := execsim.NewSimulator(seed)
	sim.TransientRate = 0 // flakiness comes from the injector, deterministically

	code := workload.Find("cg")
	art, err := toolchain.Compile(code, rec, src)
	if err != nil {
		return err
	}
	binPath := "/home/user/" + art.Name
	if err := src.FS().WriteFile(binPath, art.Bytes); err != nil {
		return err
	}

	// Source phase runs clean — the faults model target-site flakiness.
	snap := src.SnapshotEnv()
	if err := testbed.ActivateStack(src, stackKey); err != nil {
		return err
	}
	serial := "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=1\n#PBS -l walltime=00:10:00\n%CMD%\n"
	parallel := "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=4\n#PBS -l walltime=00:15:00\n%CMD%\n"
	cfg := &feam.Config{
		Phase: "source", BinaryPath: binPath,
		SerialScript: serial, ParallelScript: parallel,
	}
	bundle, _, err := eng.RunSourcePhase(ctx, cfg, src, &scenario.BatchRunner{Inner: experiment.NewSimProbeRunner(sim), TB: tb})
	src.RestoreEnv(snap)
	if err != nil {
		return err
	}

	// Probe submissions pass through each site's simulated resource manager
	// (script generation, %CMD% substitution, parse round-trip, queue wait)
	// with the site's fault injector underneath, so a probe can fail either
	// in the batch layer or in the execution itself.
	faults := fault.SiteFaults{Inner: experiment.NewSimProbeRunner(sim), Policies: map[string]*fault.Policy{}}
	runner := &scenario.BatchRunner{Inner: faults, TB: tb}
	var targets []*sitemodel.Site
	for _, s := range tb.Sites {
		if s.Name == from {
			continue
		}
		p := &fault.Policy{
			Rate:              rate,
			TransientFraction: transientFrac,
			Seed:              fault.SiteSeed(seed, s.Name),
			Ops:               []string{"probe", "write", "setattr", "mkdir", "rename", "removeall"},
		}
		faults.Policies[s.Name] = p
		s.FS().SetOpHook(fault.Hook(ctx, p))
		defer s.FS().SetOpHook(nil)
		targets = append(targets, s)
	}

	desc, err := eng.Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ranking %d sites for %s under injected faults (rate %.0f%%, %.0f%% transient, seed %d)\n\n",
		len(targets), art.Name, 100*rate, 100*transientFrac, seed)
	ranked := eng.RankSites(ctx, desc, art.Bytes, targets, feam.EvalOptions{
		Bundle: bundle, Resolve: true, Runner: runner,
	})
	for i, a := range ranked {
		switch {
		case a.Err != nil:
			// Branch on the engine's sentinel errors, not error text.
			kind := "assessment degraded"
			switch {
			case errors.Is(a.Err, feam.ErrSiteUnavailable):
				kind = "site unavailable"
			case errors.Is(a.Err, feam.ErrProbeFailed):
				kind = "evaluation aborted"
			}
			fmt.Fprintf(w, "%d. %-12s %s: %v\n", i+1, a.Site, kind, a.Err)
			if a.Prediction != nil {
				for _, d := range feam.Determinants() {
					res := a.Prediction.Determinants[d]
					fmt.Fprintf(w, "     %-30s %s\n", d, res.Outcome)
				}
			}
		case a.Prediction.Ready && len(a.Prediction.ResolvedLibs) == 0:
			fmt.Fprintf(w, "%d. %-12s READY as-is (stack %s)\n", i+1, a.Site, a.Prediction.StackKey())
		case a.Prediction.Ready:
			fmt.Fprintf(w, "%d. %-12s READY with %d staged libraries (stack %s)\n",
				i+1, a.Site, len(a.Prediction.ResolvedLibs), a.Prediction.StackKey())
		default:
			reason := "unknown"
			if len(a.Prediction.Reasons) > 0 {
				reason = a.Prediction.Reasons[0]
			}
			fmt.Fprintf(w, "%d. %-12s not ready: %s\n", i+1, a.Site, reason)
		}
	}
	var injected uint64
	for _, p := range faults.Policies {
		injected += p.Injected()
	}
	fmt.Fprintf(w, "\nfaults injected: %d\n", injected)
	fmt.Fprintf(w, "engine: %s\n", report.EngineActivity(eng.Metrics()))
	fmt.Fprintf(w, "batch accounting (probe jobs through each site's manager):\n")
	for _, s := range append([]*sitemodel.Site{src}, targets...) {
		c := tb.Clusters[s.Name]
		if c == nil || c.Now() == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %-5s %6.2f CPU-hours, virtual clock %s\n",
			s.Name, c.Manager, c.CPUHoursUsed(), c.Now())
	}
	return nil
}

func runExport(tb *testbed.Testbed, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, site := range tb.Sites {
		data, err := sitemodel.EncodeSite(site)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, site.Name+".feamsite")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%.1f MB)\n", path, float64(len(data))/(1<<20))
	}
	return nil
}

func runImport(eng *feam.Engine, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	site, err := sitemodel.DecodeSite(data)
	if err != nil {
		return err
	}
	env, err := eng.Discover(context.Background(), site)
	if err != nil {
		return err
	}
	fmt.Printf("site image %s: %s (%s, %d cores)\n", path, site.Description, site.SystemType, site.Cores)
	fmt.Printf("  processor %s, %s %s, C library %s (via %s)\n",
		env.UnameProcessor, env.OSType, env.OSVersion, env.Glibc, env.GlibcSource)
	fmt.Printf("  %d MPI stacks discovered\n", len(env.Available))
	for _, s := range env.Available {
		fmt.Printf("    %s\n", s.Key)
	}
	return nil
}

func runSurvey(eng *feam.Engine, tb *testbed.Testbed) {
	for _, site := range tb.Sites {
		env, err := eng.Discover(context.Background(), site)
		if err != nil {
			fmt.Fprintf(os.Stderr, "discovery at %s failed: %v\n", site.Name, err)
			continue
		}
		fmt.Printf("== %s ==\n", site.Name)
		fmt.Printf("  processor: %s (%d-bit), OS: %s %s, distro: %s\n",
			env.UnameProcessor, env.Bits, env.OSType, env.OSVersion, env.Distro)
		fmt.Printf("  C library: %s (determined via %s)\n", env.Glibc, env.GlibcSource)
		fmt.Printf("  env tool: %s\n", orNone(env.EnvTool))
		fmt.Printf("  MPI stacks (%d):\n", len(env.Available))
		for _, s := range env.Available {
			fmt.Printf("    %-26s %s %s with %s %s (via %s)\n",
				s.Key, s.Impl, s.ImplVersion, s.CompilerFamily, s.CompilerVersion, s.DiscoveredVia)
		}
	}
}

func orNone(s string) string {
	if s == "" {
		return "none (path search)"
	}
	return s
}

func runMatrix(tb *testbed.Testbed) {
	fmt.Printf("%-14s", "code")
	total := 0
	for _, site := range tb.Sites {
		fmt.Printf(" %-12s", site.Name)
	}
	fmt.Println()
	for _, code := range workload.All() {
		fmt.Printf("%-14s", code.Name)
		for _, site := range tb.Sites {
			ok, all := 0, 0
			for _, rec := range site.Stacks {
				all++
				family, _ := toolchain.FamilyFromKey(rec.CompilerFamily)
				comp := toolchain.Compiler{Family: family, Version: rec.CompilerVersion}
				if toolchain.CanCompile(code, comp) == nil {
					ok++
					total++
				}
			}
			fmt.Printf(" %2d/%-9d", ok, all)
		}
		fmt.Println()
	}
	fmt.Printf("\ncompilable (code, stack) combinations: %d\n", total)
}
