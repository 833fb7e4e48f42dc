// Package feam_bench holds the benchmark harness: one benchmark per paper
// table plus ablation benchmarks for the design choices DESIGN.md calls
// out. Benchmarks operate on a shared prebuilt testbed so each iteration
// measures the FEAM operation itself, not world construction.
package feam_bench

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"feam/internal/abicheck"
	"feam/internal/elfimg"
	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/ldso"
	"feam/internal/libver"
	"feam/internal/mpistack"
	"feam/internal/scenario"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

var (
	benchOnce sync.Once
	benchTB   *testbed.Testbed
	benchErr  error
)

func benchTestbed(b *testing.B) *testbed.Testbed {
	b.Helper()
	benchOnce.Do(func() { benchTB, benchErr = testbed.Build() })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTB
}

func benchSim() *execsim.Simulator {
	sim := execsim.NewSimulator(2013)
	sim.TransientRate = 0
	return sim
}

func compileBench(b *testing.B, tb *testbed.Testbed, site, stack, code string) *toolchain.Artifact {
	b.Helper()
	s := tb.ByName[site]
	rec := s.FindStack(stack)
	art, err := toolchain.Compile(workload.Find(code), rec, s)
	if err != nil {
		b.Fatal(err)
	}
	return art
}

// BenchmarkTable1Identification measures the Table I link-level MPI
// identification scheme on real compiled NEEDED lists.
func BenchmarkTable1Identification(b *testing.B) {
	tb := benchTestbed(b)
	var lists [][]string
	for _, spec := range []struct{ site, stack, code string }{
		{"india", "openmpi-1.4-gnu", "cg"},
		{"india", "mvapich2-1.7a2-intel", "104.milc"},
		{"fir", "mpich2-1.3-gnu", "is"},
	} {
		art := compileBench(b, tb, spec.site, spec.stack, spec.code)
		f, err := elfimg.Parse(art.Bytes)
		if err != nil {
			b.Fatal(err)
		}
		lists = append(lists, f.Needed)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, needed := range lists {
			if _, ok := mpistack.Identify(needed); !ok {
				b.Fatal("identification failed")
			}
		}
	}
}

// BenchmarkTable2SiteDiscovery measures the EDC survey that regenerates
// Table II: uname/proc/release parsing, C-library probing, and MPI stack
// enumeration via modules, softenv, and path search.
func BenchmarkTable2SiteDiscovery(b *testing.B) {
	tb := benchTestbed(b)
	ctx := context.Background()
	eng := feam.New()
	for _, name := range []string{"india", "blacklight", "fir"} {
		site := tb.ByName[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env, err := eng.Discover(ctx, site)
				if err != nil || len(env.Available) == 0 {
					b.Fatalf("discovery failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkTable3Prediction measures one Table III prediction, basic and
// extended, on a representative migration (india Open MPI binary at fir).
func BenchmarkTable3Prediction(b *testing.B) {
	tb := benchTestbed(b)
	runner := experiment.NewSimProbeRunner(benchSim())
	art := compileBench(b, tb, "india", "openmpi-1.4-gnu", "cg")
	ctx := context.Background()
	eng := feam.New()
	desc, err := eng.Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		b.Fatal(err)
	}
	fir := tb.ByName["fir"]
	env, err := eng.Discover(ctx, fir)
	if err != nil {
		b.Fatal(err)
	}
	bundle := sourceBundle(b, eng, tb, "india", "openmpi-1.4-gnu", art)

	b.Run("basic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pred, err := eng.Predict(ctx, feam.EvalRequest{
				Desc: desc, Binary: art.Bytes, Env: env, Site: fir,
				Options: feam.EvalOptions{Runner: runner},
			})
			if err != nil || !pred.Ready {
				b.Fatalf("prediction failed: %v", err)
			}
		}
	})
	b.Run("extended", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pred, err := eng.Predict(ctx, feam.EvalRequest{
				Desc: desc, Binary: art.Bytes, Env: env, Site: fir,
				Options: feam.EvalOptions{Runner: runner, Bundle: bundle, Resolve: true},
			})
			if err != nil || !pred.Ready {
				b.Fatalf("prediction failed: %v", err)
			}
		}
	})
}

// BenchmarkTable4Resolution measures the Table IV resolution path: the
// MVAPICH2 1.2 binary from ranger whose MPI and Fortran runtime libraries
// must be staged at india.
func BenchmarkTable4Resolution(b *testing.B) {
	tb := benchTestbed(b)
	runner := experiment.NewSimProbeRunner(benchSim())
	art := compileBench(b, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	ctx := context.Background()
	eng := feam.New()
	desc, err := eng.Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		b.Fatal(err)
	}
	india := tb.ByName["india"]
	env, err := eng.Discover(ctx, india)
	if err != nil {
		b.Fatal(err)
	}
	bundle := sourceBundle(b, eng, tb, "ranger", "mvapich2-1.2-gnu", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := eng.Predict(ctx, feam.EvalRequest{
			Desc: desc, Binary: art.Bytes, Env: env, Site: india,
			Options: feam.EvalOptions{Runner: runner, Bundle: bundle, Resolve: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !pred.Ready || len(pred.ResolvedLibs) == 0 {
			b.Fatalf("resolution did not run: %+v", pred.Reasons)
		}
	}
}

// BenchmarkSourcePhaseBundle measures the §VI.C source phase: description,
// discovery, library gathering and bundle assembly.
func BenchmarkSourcePhaseBundle(b *testing.B) {
	tb := benchTestbed(b)
	runner := experiment.NewSimProbeRunner(benchSim())
	ranger := tb.ByName["ranger"]
	art := compileBench(b, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	if err := ranger.FS().WriteFile("/home/user/"+art.Name, art.Bytes); err != nil {
		b.Fatal(err)
	}
	snap := ranger.SnapshotEnv()
	if err := testbed.ActivateStack(ranger, "mvapich2-1.2-gnu"); err != nil {
		b.Fatal(err)
	}
	defer ranger.RestoreEnv(snap)
	cfg := benchConfig("source", "/home/user/"+art.Name)
	// One run before the clock starts warms the engine's description and
	// survey caches, so each iteration times a warm source phase.
	ctx := context.Background()
	eng := feam.New()
	if _, _, err := eng.RunSourcePhase(ctx, cfg, ranger, runner); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle, _, err := eng.RunSourcePhase(ctx, cfg, ranger, runner)
		if err != nil || bundle.Size() == 0 {
			b.Fatalf("source phase failed: %v", err)
		}
	}
}

// BenchmarkELFBuildParse measures the substrate: building and parsing the
// ELF image of a typical application binary.
func BenchmarkELFBuildParse(b *testing.B) {
	spec := elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
		Interp: "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{"libmpi.so.0", "libopen-rte.so.0", "libopen-pal.so.0",
			"libnsl.so.1", "libutil.so.1", "libgfortran.so.1", "libm.so.6", "libpthread.so.0", "libc.so.6"},
		VerNeeds: []elfimg.VerNeed{{File: "libc.so.6", Versions: []string{"GLIBC_2.0", "GLIBC_2.3.4"}}},
		Comments: []string{"GCC: (GNU) 4.1.2"},
		TextSize: 256 << 10,
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := elfimg.Build(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	img := elfimg.MustBuild(spec)
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := elfimg.Parse(img); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The zero-copy path: a reused Parser walking every accessor. Run
	// with -benchmem, the allocs/op column is the number CI gates on.
	b.Run("view", func(b *testing.B) {
		var p elfimg.Parser
		var sink int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := p.Parse(img)
			if err != nil {
				b.Fatal(err)
			}
			sink += len(v.Interp()) + len(v.Soname())
			for j := 0; j < v.NeededCount(); j++ {
				sink += len(v.NeededAt(j))
			}
			v.VerNeeds(func(entry int, version []byte) bool {
				sink += len(v.VerNeedFileAt(entry)) + len(version)
				return true
			})
			v.Comments(func(c []byte) bool { sink += len(c); return true })
		}
		if sink == 0 {
			b.Fatal("no data observed")
		}
	})
}

// BenchmarkLdsoResolve measures the dynamic-loader closure over a fully
// provisioned site.
func BenchmarkLdsoResolve(b *testing.B) {
	tb := benchTestbed(b)
	india := tb.ByName["india"]
	art := compileBench(b, tb, "india", "openmpi-1.4-gnu", "bt")
	opts := ldso.Options{
		FS:          india.FS(),
		LibraryPath: []string{"/opt/openmpi-1.4-gnu/lib"},
		DefaultDirs: india.DefaultLibDirs(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ldso.ResolveBytes(art.Bytes, art.Name, opts)
		if err != nil || !res.OK() {
			b.Fatalf("resolution failed: %v %v", err, res.Missing)
		}
	}
}

// BenchmarkExecSimRun measures a single ground-truth execution.
func BenchmarkExecSimRun(b *testing.B) {
	tb := benchTestbed(b)
	sim := benchSim()
	india := tb.ByName["india"]
	rec := india.FindStack("openmpi-1.4-gnu")
	art := compileBench(b, tb, "india", "openmpi-1.4-gnu", "cg")
	snap := india.SnapshotEnv()
	if err := testbed.ActivateStack(india, rec.Key); err != nil {
		b.Fatal(err)
	}
	defer india.RestoreEnv(snap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Run(execsim.Request{Art: art, Site: india, Stack: rec})
		if !res.Success() {
			b.Fatalf("run failed: %s", res.Detail)
		}
	}
}

// BenchmarkAblationRecursiveResolution compares the paper's recursive
// resolution model with a single-level variant that ignores copy
// dependencies. The shallow variant is cheaper but stages less and misses
// transitive requirements.
func BenchmarkAblationRecursiveResolution(b *testing.B) {
	tb := benchTestbed(b)
	runner := experiment.NewSimProbeRunner(benchSim())
	art := compileBench(b, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	ctx := context.Background()
	eng := feam.New()
	desc, err := eng.Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		b.Fatal(err)
	}
	india := tb.ByName["india"]
	env, err := eng.Discover(ctx, india)
	if err != nil {
		b.Fatal(err)
	}
	bundle := sourceBundle(b, eng, tb, "ranger", "mvapich2-1.2-gnu", art)
	for name, shallow := range map[string]bool{"recursive": false, "single-level": true} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Predict(ctx, feam.EvalRequest{
					Desc: desc, Binary: art.Bytes, Env: env, Site: india,
					Options: feam.EvalOptions{Runner: runner, Bundle: bundle, Resolve: true, ShallowResolution: shallow},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDeterminantOrder shows the value of evaluating the cheap
// ISA and C-library gates before the expensive MPI stack probes (§V.C): an
// early C-library failure skips probe executions entirely.
func BenchmarkAblationDeterminantOrder(b *testing.B) {
	tb := benchTestbed(b)
	runner := experiment.NewSimProbeRunner(benchSim())
	ctx := context.Background()
	eng := feam.New()
	ranger := tb.ByName["ranger"]
	envRanger, err := eng.Discover(ctx, ranger)
	if err != nil {
		b.Fatal(err)
	}
	// A binary that fails the C-library gate at ranger.
	failing := compileBench(b, tb, "forge", "openmpi-1.4-gnu", "lu")
	failingDesc, err := eng.Describe(ctx, failing.Bytes, failing.Name)
	if err != nil {
		b.Fatal(err)
	}
	// A binary that passes all gates and pays for the probes.
	passing := compileBench(b, tb, "india", "openmpi-1.4-gnu", "is")
	passingDesc, err := eng.Describe(ctx, passing.Bytes, passing.Name)
	if err != nil {
		b.Fatal(err)
	}
	fir := tb.ByName["fir"]
	envFir, err := eng.Discover(ctx, fir)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("early-exit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pred, err := eng.Predict(ctx, feam.EvalRequest{
				Desc: failingDesc, Binary: failing.Bytes, Env: envRanger, Site: ranger,
				Options: feam.EvalOptions{Runner: runner},
			})
			if err != nil || pred.Ready {
				b.Fatal("expected early failure")
			}
		}
	})
	b.Run("full-evaluation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pred, err := eng.Predict(ctx, feam.EvalRequest{
				Desc: passingDesc, Binary: passing.Bytes, Env: envFir, Site: fir,
				Options: feam.EvalOptions{Runner: runner},
			})
			if err != nil || !pred.Ready {
				b.Fatal("expected success")
			}
		}
	})
}

// BenchmarkAblationVersionPolicy compares the paper's soname-major
// compatibility rule with exact-name matching when looking up bundle
// copies.
func BenchmarkAblationVersionPolicy(b *testing.B) {
	tb := benchTestbed(b)
	art := compileBench(b, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	bundle := sourceBundle(b, feam.New(), tb, "ranger", "mvapich2-1.2-gnu", art)
	// The compatibility rule finds libmpich.so.1.0 for a libmpich.so.1
	// reference; exact matching does not.
	b.Run("soname-major", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if bundle.FindLibrary("libmpich.so.1") == nil {
				b.Fatal("compatibility lookup failed")
			}
		}
	})
	b.Run("exact-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			found := false
			for _, lc := range bundle.Libs {
				if lc.Name == "libmpich.so.1" {
					found = true
				}
			}
			if found {
				b.Fatal("exact lookup should miss")
			}
		}
	})
}

// BenchmarkEngineDiscoveryCache compares a cold EDC survey (fresh engine
// every iteration) against the engine's memoized path (one engine, warm
// cache). The warm path is the common case inside an experiment, where the
// same site is consulted for every binary that targets it.
func BenchmarkEngineDiscoveryCache(b *testing.B) {
	tb := benchTestbed(b)
	ctx := context.Background()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := feam.New()
			for _, site := range tb.Sites {
				env, err := eng.Discover(ctx, site)
				if err != nil || len(env.Available) == 0 {
					b.Fatalf("discovery failed: %v", err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := feam.New()
		for _, site := range tb.Sites {
			if _, err := eng.Discover(ctx, site); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, site := range tb.Sites {
				env, err := eng.Discover(ctx, site)
				if err != nil || len(env.Available) == 0 {
					b.Fatalf("discovery failed: %v", err)
				}
			}
		}
	})
}

var (
	fleetOnce sync.Once
	fleetTB   *testbed.Testbed
	fleetErr  error
)

// fleetTestbed builds the 120-site mixed-ISA fleet from the scenario
// corpus once and shares it across survey benchmarks.
func fleetTestbed(b *testing.B) *testbed.Testbed {
	b.Helper()
	fleetOnce.Do(func() {
		data, err := os.ReadFile("testdata/scenarios/isa-mix.yaml")
		if err != nil {
			fleetErr = err
			return
		}
		spec, err := scenario.LoadFleet(data)
		if err != nil {
			fleetErr = err
			return
		}
		fleetTB, fleetErr = scenario.BuildFleet(spec)
	})
	if fleetErr != nil {
		b.Fatal(fleetErr)
	}
	return fleetTB
}

// BenchmarkBuildFleet measures building the 120-site mixed-ISA fleet from
// the scenario corpus: every site's filesystem, plus the fleet's one
// store of library images, in which each distinct image is built once.
// With -benchmem its B/op column is what a fleet costs to construct.
func BenchmarkBuildFleet(b *testing.B) {
	data, err := os.ReadFile("testdata/scenarios/isa-mix.yaml")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := scenario.LoadFleet(data)
	if err != nil {
		b.Fatal(err)
	}
	sites := 0
	for i := 0; i < b.N; i++ {
		tb, err := scenario.BuildFleet(spec)
		if err != nil {
			b.Fatal(err)
		}
		sites += len(tb.Sites)
	}
	b.ReportMetric(float64(sites)/b.Elapsed().Seconds(), "sites/s")
}

// BenchmarkSurveyFleet measures EDC survey throughput over the 120-site
// mixed-ISA fleet from the scenario corpus. The cold variant surveys the
// whole fleet with a fresh engine every iteration. The incremental variant
// upgrades one site's C library and re-surveys the fleet (one real survey,
// 119 cache hits). The glibc-rollout variant is the headline incremental
// number: a fleet-wide C-library update touches every site's system
// library directory, so all 120 sites need a real re-survey — but only
// the one affected shard per site should be re-walked. All report sites/s
// so BENCH_*.json carries an absolute throughput number across PRs.
func BenchmarkSurveyFleet(b *testing.B) {
	tb := fleetTestbed(b)
	ctx := context.Background()
	sites := tb.Sites
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := feam.New()
			for _, site := range sites {
				env, err := eng.Discover(ctx, site)
				if err != nil || env.Glibc == nil {
					b.Fatalf("survey failed: %v", err)
				}
			}
		}
		b.ReportMetric(float64(len(sites))*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
	})
	b.Run("incremental-glibc-upgrade", func(b *testing.B) {
		eng := feam.New()
		for _, site := range sites {
			if _, err := eng.Discover(ctx, site); err != nil {
				b.Fatal(err)
			}
		}
		target := tb.ByName["grid-0"]
		versions := []libver.Version{libver.MustParseVersion("2.12"), libver.MustParseVersion("2.5")}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The upgrade itself (ELF rebuilds) is site-admin work, not
			// survey work; keep it off the clock.
			b.StopTimer()
			if err := target.UpgradeCLibrary(versions[i%2]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, site := range sites {
				env, err := eng.Discover(ctx, site)
				if err != nil || env.Glibc == nil {
					b.Fatalf("survey failed: %v", err)
				}
			}
		}
		b.ReportMetric(float64(len(sites))*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
	})
	b.Run("glibc-rollout", func(b *testing.B) {
		eng := feam.New()
		for _, site := range sites {
			if _, err := eng.Discover(ctx, site); err != nil {
				b.Fatal(err)
			}
		}
		banners := []string{
			"GNU C Library stable release version 2.12, by Roland McGrath et al.",
			"GNU C Library stable release version 2.5, by Roland McGrath et al.",
		}
		wants := []string{"2.12", "2.5"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Rolling the new C library out (banner update on every site)
			// is site-admin work; only the re-surveys are on the clock.
			b.StopTimer()
			for _, site := range sites {
				libc := site.SystemLibDir() + "/libc.so.6"
				if err := site.FS().SetAttr(libc, sitemodel.AttrExecOutput, banners[i%2]); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			for _, site := range sites {
				env, err := eng.Discover(ctx, site)
				if err != nil || env.Glibc.String() != wants[i%2] {
					b.Fatalf("survey stale after rollout: %v glibc=%v", err, env.Glibc)
				}
			}
		}
		b.ReportMetric(float64(len(sites))*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
	})
}

// BenchmarkABIResolve measures the ABI symbol-resolution analyzer over
// the 120-site mixed-ISA fleet with a real compiled MPI binary: cold
// (every site index built from a walk of the site's library roots)
// against the engine's registry-cached path (indexes stamped by env
// fingerprint and vfs generation, built once). The cached-resolve
// variant isolates the streaming resolver on a prebuilt index and a
// pre-parsed view — run with -benchmem, its allocs/op column is the
// number CI's bench-smoke gate pins at zero.
func BenchmarkABIResolve(b *testing.B) {
	fleet := fleetTestbed(b)
	tb := benchTestbed(b)
	art := compileBench(b, tb, "india", "openmpi-1.4-gnu", "cg")
	ctx := context.Background()
	sites := fleet.Sites

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := feam.New()
			for _, site := range sites {
				if _, err := eng.ABICheck(ctx, site, art.Bytes, art.Name, false); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(sites))*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
	})
	b.Run("registry-cached", func(b *testing.B) {
		eng := feam.New()
		for _, site := range sites {
			if _, err := eng.ABICheck(ctx, site, art.Bytes, art.Name, false); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, site := range sites {
				if _, err := eng.ABICheck(ctx, site, art.Bytes, art.Name, false); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(sites))*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
	})
	b.Run("cached-resolve", func(b *testing.B) {
		ix := abicheck.BuildIndex(fleet.ByName["grid-0"], nil, 0)
		var p elfimg.Parser
		v, err := p.Parse(art.Bytes)
		if err != nil {
			b.Fatal(err)
		}
		var sink int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Resolve(v, func(name, version []byte, verdict abicheck.Verdict, provider string) bool {
				sink += len(name) + int(verdict)
				return true
			})
		}
		if sink == 0 {
			b.Fatal("resolver observed no symbols")
		}
	})
}

// BenchmarkRankSitesParallel measures the full five-site ranking —
// survey, evaluation, and probe runs per site — sequentially and with the
// engine's bounded fan-out. A fresh engine per iteration keeps every
// survey cold so the parallel speedup reflects real work.
func BenchmarkRankSitesParallel(b *testing.B) {
	tb := benchTestbed(b)
	runner := experiment.NewSimProbeRunner(benchSim())
	art := compileBench(b, tb, "india", "openmpi-1.4-gnu", "cg")
	ctx := context.Background()
	desc, err := feam.New().Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		b.Fatal(err)
	}
	opts := feam.EvalOptions{Runner: runner}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := feam.New(feam.WithWorkers(workers))
				ranked := eng.RankSites(ctx, desc, art.Bytes, tb.Sites, opts)
				for _, a := range ranked {
					if a.Err != nil {
						b.Fatal(a.Err)
					}
				}
			}
		})
	}
}

// BenchmarkRankSitesWarm measures the five-site ranking with one engine
// reused across iterations, so surveys are cached after the first and
// each iteration times what a repeated ranking pays: the Target
// Evaluation Component, its dependency closures, and the hello-world
// probes. BenchmarkRankSitesParallel builds a fresh engine per iteration,
// where discovery hides that cost.
func BenchmarkRankSitesWarm(b *testing.B) {
	tb := benchTestbed(b)
	runner := experiment.NewSimProbeRunner(benchSim())
	art := compileBench(b, tb, "india", "openmpi-1.4-gnu", "cg")
	ctx := context.Background()
	desc, err := feam.New().Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		b.Fatal(err)
	}
	opts := feam.EvalOptions{Runner: runner}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			eng := feam.New(feam.WithWorkers(workers))
			eng.RankSites(ctx, desc, art.Bytes, tb.Sites, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range eng.RankSites(ctx, desc, art.Bytes, tb.Sites, opts) {
					if a.Err != nil {
						b.Fatal(a.Err)
					}
				}
			}
		})
	}
}

func sourceBundle(b *testing.B, eng *feam.Engine, tb *testbed.Testbed, siteName, stackKey string, art *toolchain.Artifact) *feam.Bundle {
	b.Helper()
	site := tb.ByName[siteName]
	if err := site.FS().WriteFile("/home/user/"+art.Name, art.Bytes); err != nil {
		b.Fatal(err)
	}
	snap := site.SnapshotEnv()
	defer site.RestoreEnv(snap)
	if err := testbed.ActivateStack(site, stackKey); err != nil {
		b.Fatal(err)
	}
	runner := experiment.NewSimProbeRunner(benchSim())
	bundle, _, err := eng.RunSourcePhase(context.Background(), benchConfig("source", "/home/user/"+art.Name), site, runner)
	if err != nil {
		b.Fatal(err)
	}
	return bundle
}

func benchConfig(phase, binary string) *feam.Config {
	serial := "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=1\n#PBS -l walltime=00:10:00\n%CMD%\n"
	parallel := "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=4\n#PBS -l walltime=00:15:00\n%CMD%\n"
	return &feam.Config{Phase: phase, BinaryPath: binary,
		SerialScript: serial, ParallelScript: parallel}
}
