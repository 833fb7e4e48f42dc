// Package integration holds cross-cutting scenario tests that drive the
// whole stack — testbed, toolchain, FEAM phases, ground-truth execution —
// through situations the per-package tests do not compose: serial binaries,
// static binaries, bundle-only predictions, output files, 32-bit images,
// and failure injection against the discovery surface.
package integration

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
	"feam/internal/mpistack"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

var (
	once  sync.Once
	tb    *testbed.Testbed
	tberr error
)

func world(t *testing.T) *testbed.Testbed {
	t.Helper()
	once.Do(func() { tb, tberr = testbed.Build() })
	if tberr != nil {
		t.Fatal(tberr)
	}
	return tb
}

func runner() *experiment.SimProbeRunner {
	sim := execsim.NewSimulator(99)
	sim.TransientRate = 0
	return experiment.NewSimProbeRunner(sim)
}

func pbsConfig(phase, binary string) *feam.Config {
	serial := "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=1\n#PBS -l walltime=00:10:00\n%CMD%\n"
	parallel := "#!/bin/sh\n#PBS -N feam\n#PBS -q debug\n#PBS -l nodes=1:ppn=4\n#PBS -l walltime=00:15:00\n%CMD%\n"
	return &feam.Config{Phase: phase, BinaryPath: binary,
		SerialScript: serial, ParallelScript: parallel}
}

// TestSerialBinaryPrediction: a non-MPI program sails through the MPI
// determinant and is judged on ISA, C library, and shared libraries alone.
func TestSerialBinaryPrediction(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := world(t)
	india := tb.ByName["india"]
	fir := tb.ByName["fir"]
	comp := toolchain.Compiler{Family: toolchain.GNU, Version: "4.1.2"}
	art, err := toolchain.CompileSerialHello(comp, india)
	if err != nil {
		t.Fatal(err)
	}
	if err := fir.FS().WriteFile("/home/user/serial.bin", art.Bytes); err != nil {
		t.Fatal(err)
	}
	pred, _, err := eng.RunTargetPhase(ctx, pbsConfig("target", "/home/user/serial.bin"), fir, nil, runner())
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Fatalf("serial binary not ready: %v", pred.Reasons)
	}
	if pred.Determinants[feam.DetMPIStack].Detail != "not an MPI application" {
		t.Errorf("MPI determinant = %+v", pred.Determinants[feam.DetMPIStack])
	}
	if pred.SelectedStack != nil {
		t.Error("serial binary selected an MPI stack")
	}
	if strings.Contains(pred.ConfigScript, "mpiexec") {
		t.Errorf("serial config script launches MPI:\n%s", pred.ConfigScript)
	}
}

// TestStaticBinaryPrediction: a statically linked binary has no dynamic
// metadata; FEAM predicts on ISA alone (the MPI implementation is
// undetectable — a real limitation the paper's identification scheme has),
// and the launcher binding makes the prediction optimistic.
func TestStaticBinaryPrediction(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := world(t)
	india := tb.ByName["india"]
	// Install a static-capable stack.
	inst := &mpistack.Install{
		Release:        mpistack.Release{Impl: mpistack.OpenMPI, Version: "1.4"},
		CompilerFamily: "gnu", CompilerVersion: "4.1.2",
		Interconnect: "infiniband", WithFortran: true, WithStaticLibs: true,
		Prefix: "/opt/openmpi-static-test",
	}
	rec, err := inst.Materialize(india)
	if err != nil {
		t.Fatal(err)
	}
	art, err := toolchain.CompileStatic(workload.Find("is"), rec, india)
	if err != nil {
		t.Fatal(err)
	}
	fir := tb.ByName["fir"]
	if err := fir.FS().WriteFile("/home/user/is.static", art.Bytes); err != nil {
		t.Fatal(err)
	}
	pred, _, err := eng.RunTargetPhase(ctx, pbsConfig("target", "/home/user/is.static"), fir, nil, runner())
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Fatalf("static binary not ready: %v", pred.Reasons)
	}
	// FEAM cannot see the MPI dependency.
	desc, err := eng.Describe(ctx, art.Bytes, "is.static")
	if err != nil {
		t.Fatal(err)
	}
	if desc.UsesMPI() {
		t.Error("static binary identified as MPI")
	}
	if !desc.RequiredGlibc.IsZero() {
		t.Errorf("static binary has glibc requirement %v", desc.RequiredGlibc)
	}
}

// TestOutputFilesWritten: the target phase leaves the prediction report and
// configuration script at the site, per §V.C.
func TestOutputFilesWritten(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := world(t)
	india := tb.ByName["india"]
	fir := tb.ByName["fir"]
	rec := india.FindStack("openmpi-1.4-gnu")
	art, err := toolchain.Compile(workload.Find("is"), rec, india)
	if err != nil {
		t.Fatal(err)
	}
	if err := fir.FS().WriteFile("/home/user/is.out.bin", art.Bytes); err != nil {
		t.Fatal(err)
	}
	pred, report, err := eng.RunTargetPhase(ctx, pbsConfig("target", "/home/user/is.out.bin"), fir, nil, runner())
	if err != nil {
		t.Fatal(err)
	}
	data, err := fir.FS().ReadFile(feam.OutputDir + "/is.out.bin.prediction")
	if err != nil {
		t.Fatalf("prediction file: %v", err)
	}
	if !strings.Contains(string(data), "verdict:") {
		t.Errorf("prediction file content:\n%s", data)
	}
	if pred.Ready {
		script, err := fir.FS().ReadFile(feam.OutputDir + "/is.out.bin.configure.sh")
		if err != nil {
			t.Fatalf("config script file: %v", err)
		}
		if !strings.HasPrefix(string(script), "#!/bin/sh") {
			t.Errorf("config script:\n%s", script)
		}
	}
	noted := false
	for _, n := range report.Notes {
		if strings.Contains(n, "output written") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("report does not mention output files: %v", report.Notes)
	}
}

// Test32BitBinaryRejected: a 32-bit image fails the ISA determinant's word
// size check on the 64-bit testbed.
func Test32BitBinaryRejected(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := world(t)
	fir := tb.ByName["fir"]
	img := elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class32, Machine: elfimg.EM386, Type: elfimg.TypeExec,
		Interp: "/lib/ld-linux.so.2",
		Needed: []string{"libc.so.6"},
	})
	if err := fir.FS().WriteFile("/home/user/legacy32.bin", img); err != nil {
		t.Fatal(err)
	}
	pred, _, err := eng.RunTargetPhase(ctx, pbsConfig("target", "/home/user/legacy32.bin"), fir, nil, runner())
	if err != nil {
		t.Fatal(err)
	}
	// A 32-bit x86 binary runs on x86-64 hardware in reality; FEAM's model
	// compares the uname processor against the image, and our simulated
	// sites carry no 32-bit loader or libraries, so the ISA determinant
	// correctly refuses it.
	if pred.Ready {
		t.Fatal("32-bit binary predicted ready on a site without 32-bit support")
	}
	if pred.Determinants[feam.DetISA].Outcome != feam.Fail {
		t.Errorf("ISA determinant = %+v", pred.Determinants[feam.DetISA])
	}
	// And the ground truth agrees.
	sim := execsim.NewSimulator(1)
	res := sim.Run(execsim.Request{
		Art:  &toolchain.Artifact{Name: "legacy32", Bytes: img},
		Site: fir,
	})
	if res.Class != execsim.FailISA {
		t.Errorf("execution class = %v", res.Class)
	}
}

// TestDiscoveryFailureInjection: a site with a damaged /proc is
// undiscoverable, and FEAM degrades with an explicit error instead of a
// bogus prediction.
func TestDiscoveryFailureInjection(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	site := sitemodel.New("broken-proc",
		sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "X", FeatureLevel: 1},
		sitemodel.OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18", ReleaseFile: "/etc/redhat-release"},
		libver.V(2, 5))
	if err := site.FS().Remove("/proc/sys/kernel/uname"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Discover(ctx, site); err == nil {
		t.Fatal("discovery succeeded without a uname surface")
	}
}

// TestGlibcDiscoveryAPIFallback: when the C library cannot be "executed"
// (no banner attribute), the EDC falls back to reading the version
// definitions out of the library image.
func TestGlibcDiscoveryAPIFallback(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	site := sitemodel.New("no-banner",
		sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "X", FeatureLevel: 1},
		sitemodel.OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18", ReleaseFile: "/etc/redhat-release"},
		libver.V(2, 5))
	if err := site.InstallCLibrary(); err != nil {
		t.Fatal(err)
	}
	// Strip the exec banner: simulates a site where the libc binary cannot
	// be run from the command line.
	if err := site.FS().SetAttr("/lib64/libc.so.6", sitemodel.AttrExecOutput, ""); err != nil {
		t.Fatal(err)
	}
	env, err := eng.Discover(ctx, site)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Glibc.Equal(libver.V(2, 5)) {
		t.Errorf("glibc = %v", env.Glibc)
	}
	if env.GlibcSource != "api" {
		t.Errorf("GlibcSource = %q", env.GlibcSource)
	}
}

// TestSegmentOnlyBinaryThroughBDC: a binary whose section headers were
// stripped still yields a usable description via the program-header
// fallback (the paper's degraded-tool path).
func TestSegmentOnlyBinaryThroughBDC(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := world(t)
	india := tb.ByName["india"]
	rec := india.FindStack("openmpi-1.4-gnu")
	art, err := toolchain.Compile(workload.Find("cg"), rec, india)
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), art.Bytes...)
	// Zero the section-header references in the ELF64 header.
	for _, off := range []int{40, 41, 42, 43, 44, 45, 46, 47, 60, 61, 62, 63} {
		img[off] = 0
	}
	desc, err := eng.Describe(ctx, img, "stripped.cg")
	if err != nil {
		t.Fatal(err)
	}
	if desc.MPIImpl != "openmpi" {
		t.Errorf("MPIImpl = %q", desc.MPIImpl)
	}
	if desc.RequiredGlibc.IsZero() {
		t.Error("glibc requirement lost in fallback")
	}
	// Comments live in unmapped sections: the degraded path loses build
	// provenance, exactly as on real systems.
	if desc.BuildComment != "" {
		t.Errorf("BuildComment = %q", desc.BuildComment)
	}
}

// TestLdSoConfDirsUsedByPrediction: libraries visible only through
// /etc/ld.so.conf are found by the shared-library determinant.
func TestLdSoConfDirsUsedByPrediction(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	tb := world(t)
	fir := tb.ByName["fir"]
	// Intel runtimes at fir live in /opt/intel/12/lib, reachable only via
	// ld.so.conf — an intel binary's libimf must resolve through it.
	india := tb.ByName["india"]
	rec := india.FindStack("openmpi-1.4-intel")
	art, err := toolchain.Compile(workload.Find("is"), rec, india)
	if err != nil {
		t.Fatal(err)
	}
	if err := fir.FS().WriteFile("/home/user/is.intel.bin", art.Bytes); err != nil {
		t.Fatal(err)
	}
	pred, _, err := eng.RunTargetPhase(ctx, pbsConfig("target", "/home/user/is.intel.bin"), fir, nil, runner())
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Fatalf("intel binary not ready at fir: %v", pred.Reasons)
	}
	for _, m := range pred.MissingLibs {
		if strings.Contains(m, "libimf") {
			t.Error("libimf not found through ld.so.conf")
		}
	}
}
