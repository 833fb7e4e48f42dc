package feam_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/libver"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

var (
	tbOnce sync.Once
	tbVal  *testbed.Testbed
	tbErr  error
)

func sharedTestbed(t *testing.T) *testbed.Testbed {
	t.Helper()
	tbOnce.Do(func() { tbVal, tbErr = testbed.Build() })
	if tbErr != nil {
		t.Fatal(tbErr)
	}
	return tbVal
}

func quietSim() *execsim.Simulator {
	sim := execsim.NewSimulator(42)
	sim.TransientRate = 0
	return sim
}

// experimentRunner is the execsim-backed probe runner used across tests.
func experimentRunner() *experiment.SimProbeRunner { return experiment.NewSimProbeRunner(quietSim()) }

// compileAt builds a code at a site with a named stack, activating the
// stack environment for the compile the way a user would.
func compileAt(t *testing.T, tb *testbed.Testbed, siteName, stackKey, code string) *toolchain.Artifact {
	t.Helper()
	site := tb.ByName[siteName]
	rec := site.FindStack(stackKey)
	if rec == nil {
		t.Fatalf("no stack %s at %s", stackKey, siteName)
	}
	art, err := toolchain.Compile(workload.Find(code), rec, site)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func TestDescribeBytes(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "cg")
	desc, err := eng.Describe(ctx, art.Bytes, "cg.binary")
	if err != nil {
		t.Fatal(err)
	}
	if desc.Format != "elf64-x86-64" || desc.Bits != 64 {
		t.Errorf("format = %q bits = %d", desc.Format, desc.Bits)
	}
	if desc.MPIImpl != "openmpi" {
		t.Errorf("MPIImpl = %q", desc.MPIImpl)
	}
	if !desc.RequiredGlibc.Equal(libver.V(2, 3, 4)) {
		t.Errorf("RequiredGlibc = %v", desc.RequiredGlibc)
	}
	if !strings.Contains(desc.BuildComment, "GCC") {
		t.Errorf("BuildComment = %q", desc.BuildComment)
	}
	if !desc.BuildGlibc.Equal(libver.V(2, 5)) {
		t.Errorf("BuildGlibc = %v", desc.BuildGlibc)
	}
	if desc.IsSharedLibrary() || !desc.UsesMPI() {
		t.Error("classification wrong")
	}
	if _, err := eng.Describe(ctx, []byte("not elf"), "x"); err == nil {
		t.Error("junk accepted")
	}
}

func TestDescribeSharedLibrary(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	india := tb.ByName["india"]
	data, err := india.FS().ReadFile("/opt/mvapich2-1.7a2-gnu/lib/libmpich.so.1.2")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := eng.Describe(ctx, data, "libmpich.so.1.2")
	if err != nil {
		t.Fatal(err)
	}
	if !desc.IsSharedLibrary() {
		t.Error("library not classified as shared library")
	}
	if desc.Soname != "libmpich.so.1.2" {
		t.Errorf("Soname = %q", desc.Soname)
	}
	if !desc.LibVersion.Equal(libver.V(1, 2)) {
		t.Errorf("LibVersion = %v", desc.LibVersion)
	}
}

func TestGatherLibraries(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	india := tb.ByName["india"]
	snap := india.SnapshotEnv()
	defer india.RestoreEnv(snap)
	if err := testbed.ActivateStack(india, "openmpi-1.4-gnu"); err != nil {
		t.Fatal(err)
	}
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "cg")
	res, err := eng.GatherLibraries(ctx, india, art.Bytes, "cg")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NotFound) != 0 {
		t.Errorf("NotFound = %v", res.NotFound)
	}
	names := map[string]bool{}
	for _, lc := range res.Copies {
		names[lc.Name] = true
		if len(lc.Data) == 0 {
			t.Errorf("%s copy is empty", lc.Name)
		}
		if lc.Desc == nil {
			t.Errorf("%s copy lacks a description", lc.Name)
		}
	}
	for _, want := range []string{"libmpi.so.0", "libgfortran.so.1", "libm.so.6"} {
		if !names[want] {
			t.Errorf("copies lack %s (have %v)", want, names)
		}
	}
	// The C library and loader are never copied (§IV).
	if names["libc.so.6"] {
		t.Error("libc must not be copied")
	}
}

func TestGatherLibrariesFallbackSearch(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	fir := tb.ByName["fir"]
	snap := fir.SnapshotEnv()
	defer fir.RestoreEnv(snap)
	// Do NOT activate the stack: the loader will miss the MPI libraries and
	// the gather must fall back to filesystem searches under /opt.
	art := compileAt(t, tb, "fir", "mpich2-1.3-gnu", "is")
	res, err := eng.GatherLibraries(ctx, fir, art.Bytes, "is")
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchFallbacks == 0 {
		t.Error("expected fallback searches")
	}
	found := false
	for _, lc := range res.Copies {
		if lc.Name == "libmpich.so.1.2" {
			found = true
			if !strings.HasPrefix(lc.OriginPath, "/opt/") {
				t.Errorf("libmpich found at %q", lc.OriginPath)
			}
		}
	}
	if !found {
		t.Error("fallback search did not locate libmpich")
	}
}

// TestGatherLibrariesSharesSiteStorage: gathered copies alias the source
// site's stored bytes instead of duplicating them, so a bundle costs no
// library memory beyond the filesystem that already holds the files.
func TestGatherLibrariesSharesSiteStorage(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	india := tb.ByName["india"]
	snap := india.SnapshotEnv()
	defer india.RestoreEnv(snap)
	if err := testbed.ActivateStack(india, "openmpi-1.4-gnu"); err != nil {
		t.Fatal(err)
	}
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "cg")
	res, err := eng.GatherLibraries(ctx, india, art.Bytes, "cg")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Copies) == 0 {
		t.Fatal("no copies gathered")
	}
	for _, lc := range res.Copies {
		stored, err := india.FS().ReadFileShared(lc.OriginPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(lc.Data) == 0 || &lc.Data[0] != &stored[0] {
			t.Errorf("%s copy does not share storage with %s", lc.Name, lc.OriginPath)
		}
	}
}

func TestDiscoverModulesSite(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	india := tb.ByName["india"]
	snap := india.SnapshotEnv()
	defer india.RestoreEnv(snap)

	env, err := eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	if env.ISA != elfimg.EMX8664 || env.Bits != 64 {
		t.Errorf("ISA = %v/%d", env.ISA, env.Bits)
	}
	if env.OSType != "Linux" || !strings.Contains(env.Distro, "Red Hat") {
		t.Errorf("OS = %q %q", env.OSType, env.Distro)
	}
	if !env.Glibc.Equal(libver.V(2, 5)) || env.GlibcSource != "exec-banner" {
		t.Errorf("glibc = %v via %q", env.Glibc, env.GlibcSource)
	}
	if env.EnvTool != "modules" {
		t.Errorf("EnvTool = %q", env.EnvTool)
	}
	if len(env.Available) != 6 {
		t.Errorf("Available = %d stacks", len(env.Available))
	}
	if env.Loaded != nil {
		t.Errorf("Loaded = %+v before any module load", env.Loaded)
	}
	// Stack details parsed from keys and wrapper banners.
	var ompIntel *feam.StackInfo
	for i := range env.Available {
		if env.Available[i].Key == "openmpi-1.4-intel" {
			ompIntel = &env.Available[i]
		}
	}
	if ompIntel == nil {
		t.Fatalf("openmpi-1.4-intel not discovered: %+v", env.Available)
	}
	if ompIntel.Impl != "openmpi" || ompIntel.ImplVersion != "1.4" || ompIntel.CompilerFamily != "intel" {
		t.Errorf("stack info = %+v", ompIntel)
	}
	if ompIntel.CompilerVersion != "11.1" {
		t.Errorf("compiler version = %q", ompIntel.CompilerVersion)
	}

	// After loading a module, the loaded stack is reported.
	if err := testbed.ActivateStack(india, "mvapich2-1.7a2-gnu"); err != nil {
		t.Fatal(err)
	}
	env, err = eng.Discover(ctx, india)
	if err != nil {
		t.Fatal(err)
	}
	if env.Loaded == nil || env.Loaded.Key != "mvapich2-1.7a2-gnu" {
		t.Errorf("Loaded = %+v", env.Loaded)
	}
}

func TestDiscoverSoftEnvAndPathSearchSites(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	bl := tb.ByName["blacklight"]
	env, err := eng.Discover(ctx, bl)
	if err != nil {
		t.Fatal(err)
	}
	if env.EnvTool != "softenv" {
		t.Errorf("blacklight tool = %q", env.EnvTool)
	}
	if len(env.Available) != 2 {
		t.Errorf("blacklight stacks = %+v", env.Available)
	}
	if !env.Glibc.Equal(libver.V(2, 11, 1)) {
		t.Errorf("blacklight glibc = %v", env.Glibc)
	}

	fir := tb.ByName["fir"]
	env, err = eng.Discover(ctx, fir)
	if err != nil {
		t.Fatal(err)
	}
	if env.EnvTool != "" {
		t.Errorf("fir tool = %q", env.EnvTool)
	}
	if len(env.Available) != 9 {
		t.Errorf("fir stacks = %d: %+v", len(env.Available), env.Available)
	}
	for _, s := range env.Available {
		if s.DiscoveredVia != "path-search" {
			t.Errorf("fir stack %s via %q", s.Key, s.DiscoveredVia)
		}
	}
}

func TestEvaluateReadyAtCompatibleSite(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	runner := experiment.NewSimProbeRunner(quietSim())
	// india and fir share glibc, GCC, and MPI versions: a gnu Open MPI
	// binary migrates cleanly.
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "cg")
	desc, err := eng.Describe(ctx, art.Bytes, "cg.india")
	if err != nil {
		t.Fatal(err)
	}
	fir := tb.ByName["fir"]
	env, err := eng.Discover(ctx, fir)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: fir,
		Options: feam.EvalOptions{Runner: runner},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Fatalf("not ready: %v", pred.Reasons)
	}
	if pred.SelectedStack == nil || pred.SelectedStack.CompilerFamily != "gnu" {
		t.Errorf("selected stack = %+v (want the gnu build preferred)", pred.SelectedStack)
	}
	if pred.Determinants[feam.DetISA].Outcome != feam.Pass ||
		pred.Determinants[feam.DetCLibrary].Outcome != feam.Pass ||
		pred.Determinants[feam.DetMPIStack].Outcome != feam.Pass ||
		pred.Determinants[feam.DetSharedLibs].Outcome != feam.Pass {
		t.Errorf("determinants = %+v", pred.Determinants)
	}
	if !strings.Contains(pred.ConfigScript, "mpiexec") {
		t.Errorf("ConfigScript = %q", pred.ConfigScript)
	}
}

func TestEvaluateCLibraryGate(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	runner := experiment.NewSimProbeRunner(quietSim())
	// An uncapped code built on forge (glibc 2.12) cannot run on ranger
	// (2.3.4); evaluation stops at the C library determinant.
	art := compileAt(t, tb, "forge", "openmpi-1.4-gnu", "lu")
	desc, err := eng.Describe(ctx, art.Bytes, "lu.forge")
	if err != nil {
		t.Fatal(err)
	}
	ranger := tb.ByName["ranger"]
	env, err := eng.Discover(ctx, ranger)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: ranger,
		Options: feam.EvalOptions{Runner: runner},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Ready {
		t.Fatal("predicted ready despite glibc gap")
	}
	if pred.Determinants[feam.DetCLibrary].Outcome != feam.Fail {
		t.Errorf("C library determinant = %+v", pred.Determinants[feam.DetCLibrary])
	}
	// Later determinants were never evaluated (the paper's early exit).
	if pred.Determinants[feam.DetMPIStack].Outcome != feam.Unknown {
		t.Errorf("MPI determinant = %+v", pred.Determinants[feam.DetMPIStack])
	}
}

func TestEvaluateNoMatchingImplementation(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	runner := experiment.NewSimProbeRunner(quietSim())
	// An MPICH2 binary cannot run at blacklight (Open MPI only).
	art := compileAt(t, tb, "india", "mpich2-1.4-gnu", "is")
	desc, err := eng.Describe(ctx, art.Bytes, "is.india.mpich2")
	if err != nil {
		t.Fatal(err)
	}
	bl := tb.ByName["blacklight"]
	env, err := eng.Discover(ctx, bl)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: bl,
		Options: feam.EvalOptions{Runner: runner},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Ready {
		t.Fatal("predicted ready without a matching MPI implementation")
	}
	if pred.Determinants[feam.DetMPIStack].Outcome != feam.Fail {
		t.Errorf("MPI determinant = %+v", pred.Determinants[feam.DetMPIStack])
	}
}

func TestEvaluateBrokenStackDetected(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	runner := experiment.NewSimProbeRunner(quietSim())
	// MVAPICH2 binaries migrating to forge find only the broken
	// mvapich2-1.7rc1-intel; the hello-world probe exposes it.
	art := compileAt(t, tb, "india", "mvapich2-1.7a2-intel", "is")
	desc, err := eng.Describe(ctx, art.Bytes, "is.india.mvapich2")
	if err != nil {
		t.Fatal(err)
	}
	forge := tb.ByName["forge"]
	env, err := eng.Discover(ctx, forge)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: forge,
		Options: feam.EvalOptions{Runner: runner},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Ready {
		t.Fatal("predicted ready on a broken stack")
	}
	if !strings.Contains(pred.Determinants[feam.DetMPIStack].Detail, "hello world failed") {
		t.Errorf("MPI determinant detail = %q", pred.Determinants[feam.DetMPIStack].Detail)
	}
}

// TestSourceAndTargetPhasesWithResolution exercises the full two-phase flow
// on the paper's flagship resolution scenario: an MVAPICH2 1.2 binary from
// ranger needs libmpich.so.1.0 at india, which only the bundle can provide.
func TestSourceAndTargetPhasesWithResolution(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	sim := quietSim()
	runner := experiment.NewSimProbeRunner(sim)
	ranger := tb.ByName["ranger"]
	india := tb.ByName["india"]

	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	if err := ranger.FS().WriteFile("/home/user/cg.bin", art.Bytes); err != nil {
		t.Fatal(err)
	}

	snap := ranger.SnapshotEnv()
	if err := testbed.ActivateStack(ranger, "mvapich2-1.2-gnu"); err != nil {
		t.Fatal(err)
	}
	srcCfg := testConfig("source", "/home/user/cg.bin")
	bundle, report, err := eng.RunSourcePhase(ctx, srcCfg, ranger, runner)
	ranger.RestoreEnv(snap)
	if err != nil {
		t.Fatal(err)
	}
	if report.Total().Minutes() >= 5 {
		t.Errorf("source phase took %v", report.Total())
	}
	if bundle.MPIHello == nil {
		t.Error("bundle lacks the MPI hello world")
	}
	if bundle.FindLibrary("libmpich.so.1.0") == nil {
		t.Errorf("bundle lacks libmpich.so.1.0: %s", bundle.Summary())
	}
	if bundle.SourceStack != "mvapich2-1.2-gnu" {
		t.Errorf("SourceStack = %q", bundle.SourceStack)
	}
	if bundle.Size() <= 0 {
		t.Error("empty bundle")
	}

	// Basic target phase at india: missing library, no resolution.
	if err := india.FS().WriteFile("/home/user/cg.bin", art.Bytes); err != nil {
		t.Fatal(err)
	}
	tgtCfg := testConfig("target", "/home/user/cg.bin")
	basic, _, err := eng.RunTargetPhase(ctx, tgtCfg, india, nil, runner)
	if err != nil {
		t.Fatal(err)
	}
	if basic.Ready {
		t.Fatal("basic prediction should fail on the missing MVAPICH2 1.2 library")
	}
	// Both the MVAPICH2 1.2 library and the GCC-3.4 Fortran runtime are
	// absent at india.
	missing := strings.Join(basic.MissingLibs, ",")
	if !strings.Contains(missing, "libmpich.so.1.0") || !strings.Contains(missing, "libg2c.so.0") {
		t.Errorf("MissingLibs = %v", basic.MissingLibs)
	}

	// Extended target phase: resolution stages the copy and predicts ready.
	ext, report2, err := eng.RunTargetPhase(ctx, tgtCfg, india, bundle, runner)
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Ready {
		t.Fatalf("extended prediction not ready: %v", ext.Reasons)
	}
	if report2.Total().Minutes() >= 5 {
		t.Errorf("target phase took %v", report2.Total())
	}
	if ext.Determinants[feam.DetSharedLibs].Outcome != feam.Resolved {
		t.Errorf("shared libs determinant = %+v", ext.Determinants[feam.DetSharedLibs])
	}
	found := false
	for _, r := range ext.ResolvedLibs {
		if r == "libmpich.so.1.0" {
			found = true
		}
	}
	if !found {
		t.Errorf("ResolvedLibs = %v", ext.ResolvedLibs)
	}
	if !strings.Contains(ext.ConfigScript, ext.StageDir) {
		t.Errorf("ConfigScript does not export the staged dir:\n%s", ext.ConfigScript)
	}

	// Ground truth: the staged configuration actually runs.
	rec := india.FindStack(ext.StackKey())
	snap = india.SnapshotEnv()
	if err := testbed.ActivateStack(india, ext.StackKey()); err != nil {
		t.Fatal(err)
	}
	res := sim.Run(execsim.Request{Art: art, Site: india, Stack: rec, ExtraLibDirs: ext.ExtraLibDirs()})
	india.RestoreEnv(snap)
	if !res.Success() {
		t.Errorf("resolved execution failed: %v %s", res.Class, res.Detail)
	}
}

// TestResolutionRejectsIncompatibleCopies checks the §VI.C unresolvable
// class: copies requiring a newer C library than the target provides.
func TestResolutionRejectsIncompatibleCopies(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	runner := experiment.NewSimProbeRunner(quietSim())
	india := tb.ByName["india"]
	ranger := tb.ByName["ranger"]

	// MVAPICH2 1.7a2 binary from india needs libmpich.so.1.2 at ranger;
	// the india copy references GLIBC_2.5 which ranger (2.3.4) lacks.
	art := compileAt(t, tb, "india", "mvapich2-1.7a2-gnu", "is")
	if err := india.FS().WriteFile("/home/user/is.bin", art.Bytes); err != nil {
		t.Fatal(err)
	}
	snap := india.SnapshotEnv()
	if err := testbed.ActivateStack(india, "mvapich2-1.7a2-gnu"); err != nil {
		t.Fatal(err)
	}
	bundle, _, err := eng.RunSourcePhase(ctx, testConfig("source", "/home/user/is.bin"), india, runner)
	india.RestoreEnv(snap)
	if err != nil {
		t.Fatal(err)
	}

	if err := ranger.FS().WriteFile("/home/user/is.bin", art.Bytes); err != nil {
		t.Fatal(err)
	}
	pred, _, err := eng.RunTargetPhase(ctx, testConfig("target", "/home/user/is.bin"), ranger, bundle, runner)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Ready {
		t.Fatal("predicted ready with an incompatible copy")
	}
	reason, ok := pred.UnresolvedLibs["libmpich.so.1.2"]
	if !ok || !strings.Contains(reason, "glibc") {
		t.Errorf("UnresolvedLibs = %v", pred.UnresolvedLibs)
	}
}

func testConfig(phase, binary string) *feam.Config {
	serial := "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=1\n#PBS -l walltime=00:10:00\n%CMD%\n"
	parallel := "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=4\n#PBS -l walltime=00:15:00\n%CMD%\n"
	return &feam.Config{
		Phase:          phase,
		BinaryPath:     binary,
		SerialScript:   serial,
		ParallelScript: parallel,
		MpiexecByImpl:  map[string]string{},
	}
}

// TestRankSites surveys all five sites for a binary with a known best home.
func TestRankSites(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	// An MVAPICH2 1.2 gnu binary from ranger: fir/india need resolution,
	// forge's MVAPICH2 is broken, blacklight has no MVAPICH2 at all.
	art := compileAt(t, tb, "ranger", "mvapich2-1.2-gnu", "cg")
	desc, err := eng.Describe(ctx, art.Bytes, "cg.rank")
	if err != nil {
		t.Fatal(err)
	}
	// Build the bundle for resolution.
	ranger := tb.ByName["ranger"]
	if err := ranger.FS().WriteFile("/home/user/cg.rank", art.Bytes); err != nil {
		t.Fatal(err)
	}
	snap := ranger.SnapshotEnv()
	if err := testbed.ActivateStack(ranger, "mvapich2-1.2-gnu"); err != nil {
		t.Fatal(err)
	}
	bundle, _, err := eng.RunSourcePhase(ctx, testConfig("source", "/home/user/cg.rank"), ranger, experimentRunner())
	ranger.RestoreEnv(snap)
	if err != nil {
		t.Fatal(err)
	}

	var targets []*sitemodel.Site
	for _, s := range tb.Sites {
		if s.Name != "ranger" {
			targets = append(targets, s)
		}
	}
	ranked := eng.RankSites(ctx, desc, art.Bytes, targets, feam.EvalOptions{
		Bundle: bundle, Resolve: true, Runner: experimentRunner(),
	})
	if len(ranked) != 4 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	// The two resolution-capable sites come first.
	firstTwo := map[string]bool{ranked[0].Site: true, ranked[1].Site: true}
	if !firstTwo["india"] || !firstTwo["fir"] {
		t.Errorf("top sites = %v, want india+fir", firstTwo)
	}
	for _, a := range ranked[:2] {
		if a.Prediction == nil || !a.Prediction.Ready {
			t.Errorf("%s should be ready", a.Site)
		}
	}
	// blacklight (no MVAPICH2) and forge (broken MVAPICH2) trail.
	for _, a := range ranked[2:] {
		if a.Prediction == nil || a.Prediction.Ready {
			t.Errorf("%s should not be ready", a.Site)
		}
	}
}

// TestEvaluateDeterministic: repeated evaluations of the same pair produce
// identical predictions.
func TestEvaluateDeterministic(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "india", "openmpi-1.4-gnu", "mg")
	desc, err := eng.Describe(ctx, art.Bytes, "mg.det")
	if err != nil {
		t.Fatal(err)
	}
	fir := tb.ByName["fir"]
	env, err := eng.Discover(ctx, fir)
	if err != nil {
		t.Fatal(err)
	}
	runner := experimentRunner()
	var first *feam.Prediction
	for i := 0; i < 5; i++ {
		pred, err := eng.Predict(ctx, feam.EvalRequest{
			Desc: desc, Binary: art.Bytes, Env: env, Site: fir,
			Options: feam.EvalOptions{Runner: runner},
		})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = pred
			continue
		}
		if pred.Ready != first.Ready || pred.StackKey() != first.StackKey() ||
			strings.Join(pred.MissingLibs, ",") != strings.Join(first.MissingLibs, ",") ||
			pred.ConfigScript != first.ConfigScript {
			t.Fatalf("prediction changed on iteration %d", i)
		}
	}
}

// TestStackPreferenceMatchesBuildCompiler: candidates sharing the binary's
// compiler family are tried first.
func TestStackPreferenceMatchesBuildCompiler(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := sharedTestbed(t)
	art := compileAt(t, tb, "india", "openmpi-1.4-intel", "is")
	desc, err := eng.Describe(ctx, art.Bytes, "is.pref")
	if err != nil {
		t.Fatal(err)
	}
	fir := tb.ByName["fir"]
	env, err := eng.Discover(ctx, fir)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: fir,
		Options: feam.EvalOptions{Runner: experimentRunner()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready || pred.SelectedStack.CompilerFamily != "intel" {
		t.Errorf("selected = %+v", pred.SelectedStack)
	}
}
