// Library-resolution walkthrough: the paper's §IV resolution model in
// action, including the case it cannot fix.
//
// Scenario A (resolvable): an MVAPICH2 1.2 binary built on Ranger needs
// libmpich.so.1.0 and the GCC-3.4 Fortran runtime libg2c.so.0 — neither
// exists at India. FEAM's source phase copies both from Ranger; the target
// phase verifies the copies recursively and stages them, turning a failing
// migration into a working one.
//
// Scenario B (unresolvable): the reverse direction. An MVAPICH2 1.7a2
// binary from India needs libmpich.so.1.2 at Ranger, but India's copy
// references GLIBC_2.5 and Ranger only has glibc 2.3.4 — the copy fails the
// recursive C-library check, exactly the incompatibility class the paper
// reports for the unresolved half of missing-library failures.
//
// Run with: go run ./examples/libresolution
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"feam/internal/batch"
	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/fault"
	"feam/internal/feam"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

func main() {
	tb, err := testbed.Build()
	if err != nil {
		log.Fatal(err)
	}
	sim := execsim.NewSimulator(7)
	runner := experiment.NewSimProbeRunner(sim)
	eng := feam.New()

	fmt.Println("=== Scenario A: resolvable (ranger -> india) ===")
	scenarioA(eng, tb, sim, runner)
	fmt.Println()
	fmt.Println("=== Scenario B: unresolvable copy (india -> ranger) ===")
	scenarioB(eng, tb, runner)
}

func scenarioA(eng *feam.Engine, tb *testbed.Testbed, sim *execsim.Simulator, runner fault.Runner) {
	ranger, india := tb.ByName["ranger"], tb.ByName["india"]
	art := compile(ranger, "mvapich2-1.2-gnu", "mg")
	place(ranger, india, art)

	// Source phase at the guaranteed execution environment.
	bundle := sourcePhase(eng, tb, ranger, "mvapich2-1.2-gnu", art, runner)
	fmt.Printf("bundle from ranger: %d libraries, %.1f MB\n",
		len(bundle.Libs), float64(bundle.Size())/(1<<20))

	// Basic prediction at india fails on missing libraries...
	basic := targetPhase(eng, tb, india, art, nil, runner)
	fmt.Printf("basic prediction: ready=%v, missing=%v\n", basic.Ready, basic.MissingLibs)

	// ...and the extended prediction resolves them.
	ext := targetPhase(eng, tb, india, art, bundle, runner)
	fmt.Printf("extended prediction: ready=%v, resolved=%v\n", ext.Ready, ext.ResolvedLibs)

	// Prove it with the ground-truth simulator.
	rec := india.FindStack(ext.StackKey())
	snap := india.SnapshotEnv()
	if err := testbed.ActivateStack(india, ext.StackKey()); err != nil {
		log.Fatal(err)
	}
	without := sim.Run(execsim.Request{Art: art, Site: india, Stack: rec})
	with := sim.Run(execsim.Request{Art: art, Site: india, Stack: rec, ExtraLibDirs: ext.ExtraLibDirs()})
	india.RestoreEnv(snap)
	fmt.Printf("actual execution without staging: %s (%s)\n", outcome(without), without.Detail)
	fmt.Printf("actual execution with staging:    %s\n", outcome(with))
}

func scenarioB(eng *feam.Engine, tb *testbed.Testbed, runner fault.Runner) {
	india, ranger := tb.ByName["india"], tb.ByName["ranger"]
	art := compile(india, "mvapich2-1.7a2-gnu", "is")
	place(india, ranger, art)

	bundle := sourcePhase(eng, tb, india, "mvapich2-1.7a2-gnu", art, runner)
	pred := targetPhase(eng, tb, ranger, art, bundle, runner)
	fmt.Printf("extended prediction at ranger: ready=%v\n", pred.Ready)
	for lib, why := range pred.UnresolvedLibs {
		fmt.Printf("  unresolvable %s: %s\n", lib, why)
	}
}

func compile(site *sitemodel.Site, stackKey, code string) *toolchain.Artifact {
	rec := site.FindStack(stackKey)
	art, err := toolchain.Compile(workload.Find(code), rec, site)
	if err != nil {
		log.Fatal(err)
	}
	return art
}

func place(src, dst *sitemodel.Site, art *toolchain.Artifact) {
	for _, s := range []*sitemodel.Site{src, dst} {
		if err := s.FS().WriteFile("/home/user/"+art.Name, art.Bytes); err != nil {
			log.Fatal(err)
		}
	}
}

func sourcePhase(eng *feam.Engine, tb *testbed.Testbed, site *sitemodel.Site, stackKey string, art *toolchain.Artifact, runner fault.Runner) *feam.Bundle {
	snap := site.SnapshotEnv()
	defer site.RestoreEnv(snap)
	if err := testbed.ActivateStack(site, stackKey); err != nil {
		log.Fatal(err)
	}
	bundle, _, err := eng.RunSourcePhase(context.Background(), config(tb, site.Name, "source", "/home/user/"+art.Name), site, runner)
	if err != nil {
		log.Fatal(err)
	}
	return bundle
}

func targetPhase(eng *feam.Engine, tb *testbed.Testbed, site *sitemodel.Site, art *toolchain.Artifact, bundle *feam.Bundle, runner fault.Runner) *feam.Prediction {
	pred, _, err := eng.RunTargetPhase(context.Background(), config(tb, site.Name, "target", "/home/user/"+art.Name), site, bundle, runner)
	if err != nil {
		log.Fatal(err)
	}
	return pred
}

func config(tb *testbed.Testbed, siteName, phase, binary string) *feam.Config {
	spec := tb.Specs[siteName]
	mk := func(tasks int) string {
		return batch.Generate(batch.ScriptSpec{
			Manager: spec.Manager, JobName: "feam", Queue: "debug",
			Nodes: 1, Tasks: tasks, WallTime: 10 * time.Minute, Command: batch.CmdPlaceholder,
		})
	}
	return &feam.Config{Phase: phase, BinaryPath: binary,
		SerialScript: mk(1), ParallelScript: mk(4)}
}

func outcome(r execsim.Result) string {
	if r.Success() {
		return "SUCCESS"
	}
	return "FAILED: " + r.Class.String()
}
