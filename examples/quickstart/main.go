// Quickstart: predict whether one MPI binary is ready to execute at a new
// computing site.
//
// The example builds the simulated five-site testbed, compiles the NPB
// conjugate-gradient benchmark at FutureGrid India with Open MPI, migrates
// the binary to the Fir cluster, and asks FEAM for a basic prediction
// (target phase only, no source-site information).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

func main() {
	// 1. A simulated world: five sites with real (in-memory) filesystems,
	//    ELF libraries, compilers and MPI installations.
	tb, err := testbed.Build()
	if err != nil {
		log.Fatal(err)
	}
	india := tb.ByName["india"]
	fir := tb.ByName["fir"]

	// The engine owns the prediction pipeline: memoized binary and
	// environment descriptions and per-site locks for concurrent use. One engine serves any number of
	// evaluations.
	ctx := context.Background()
	eng := feam.New()

	// 2. "Compile" the benchmark at india: the artifact is a genuine ELF
	//    image whose NEEDED list, symbol versions and .comment section are
	//    what a real mpicc would produce.
	stack := india.FindStack("openmpi-1.4-gnu")
	art, err := toolchain.Compile(workload.Find("cg"), stack, india)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s (%d bytes)\n", art.Name, art.Size())

	// 3. Describe the binary (FEAM's BDC) and discover the target site
	//    (FEAM's EDC).
	desc, err := eng.Describe(ctx, art.Bytes, art.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary: %s, MPI implementation: %s, required glibc: %s\n",
		desc.Format, desc.MPIImpl, desc.RequiredGlibc)

	env, err := eng.Discover(ctx, fir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target %s: glibc %s, %d MPI stacks discovered via %s\n",
		env.SiteName, env.Glibc, len(env.Available), orPathSearch(env.EnvTool))

	// 4. Evaluate (FEAM's TEC). The runner executes hello-world probe
	//    programs through the ground-truth execution simulator, the way the
	//    real framework submits probes through the batch system.
	runner := experiment.NewSimProbeRunner(execsim.NewSimulator(1))
	pred, err := eng.Predict(ctx, feam.EvalRequest{
		Desc: desc, Binary: art.Bytes, Env: env, Site: fir,
		Options: feam.EvalOptions{Runner: runner},
	})
	if err != nil {
		log.Fatal(err)
	}
	if pred.Ready {
		fmt.Printf("prediction: READY — selected stack %s\n", pred.StackKey())
		fmt.Printf("configuration script:\n%s", pred.ConfigScript)
	} else {
		fmt.Println("prediction: NOT READY")
		for _, r := range pred.Reasons {
			fmt.Println("  -", r)
		}
	}
}

func orPathSearch(tool string) string {
	if tool == "" {
		return "path search"
	}
	return tool
}
