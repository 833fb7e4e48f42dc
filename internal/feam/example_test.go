package feam_test

import (
	"context"
	"fmt"

	"feam/internal/elfimg"
	"feam/internal/fault"
	"feam/internal/feam"
	"feam/internal/libver"
	"feam/internal/mpistack"
	"feam/internal/obs"
	"feam/internal/sitemodel"
)

// ExampleEngine_Describe shows the Binary Description Component on a
// hand-built MPI binary image.
func ExampleEngine_Describe() {
	img := elfimg.MustBuild(elfimg.Spec{
		Class:   elfimg.Class64,
		Machine: elfimg.EMX8664,
		Type:    elfimg.TypeExec,
		Interp:  "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{"libmpich.so.1.2", "libibverbs.so.1", "libibumad.so.3",
			"libm.so.6", "libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.0", "GLIBC_2.5"}},
		},
		Comments: []string{"Intel(R) C Compiler 11.1"},
	})
	desc, _ := feam.New().Describe(context.Background(), img, "milc.bin")
	fmt.Println(desc.Format)
	fmt.Println(desc.MPIImpl)
	fmt.Println(desc.RequiredGlibc)
	fmt.Println(desc.BuildComment)
	// Output:
	// elf64-x86-64
	// mvapich2
	// 2.5
	// Intel(R) C Compiler 11.1
}

// ExampleIdentify demonstrates the paper's Table I identification scheme.
func ExampleIdentify() {
	needed := []string{"libmpi.so.0", "libnsl.so.1", "libutil.so.1", "libc.so.6"}
	impl, ok := mpistack.Identify(needed)
	fmt.Println(impl, ok)
	// Output: Open MPI true
}

// ExampleNew builds an engine with functional options: a bounded ranking
// fan-out, a single-attempt retry policy, and a shared metrics registry.
func ExampleNew() {
	eng := feam.New(
		feam.WithWorkers(2),
		feam.WithRetryPolicy(fault.RetryPolicy{MaxAttempts: 1}),
		feam.WithMetrics(obs.NewRegistry()),
	)
	fmt.Println(eng.Tracer() != nil)
	fmt.Println(eng.Metrics() != nil)
	// Output:
	// true
	// true
}

// ExampleEngine_Predict evaluates a plain dynamically linked binary
// against a minimal site: Predict describes the raw bytes, surveys the
// site, and walks the determinant ladder.
func ExampleEngine_Predict() {
	site := sitemodel.New("edge",
		sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "X", FeatureLevel: 1},
		sitemodel.OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18", ReleaseFile: "/etc/redhat-release"},
		libver.V(2, 5))
	if err := site.InstallCLibrary(); err != nil {
		panic(err)
	}
	img := elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
		Interp: "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{"libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.3.4"}},
		},
	})

	eng := feam.New()
	pred, err := eng.Predict(context.Background(), feam.EvalRequest{
		Binary: img, BinaryName: "app", Site: site,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("ready:", pred.Ready)
	for _, d := range feam.Determinants() {
		fmt.Printf("%s: %s\n", d, pred.Determinants[d].Outcome)
	}
	// Output:
	// ready: true
	// ISA compatibility: pass
	// C library compatibility: pass
	// MPI stack compatibility: pass
	// shared library compatibility: pass
	// ABI symbol resolution: not evaluated
}
