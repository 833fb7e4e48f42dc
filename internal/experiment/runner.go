// Package experiment drives the paper's evaluation: it compiles the NPB and
// SPEC MPI2007 test set across the five-site testbed (Table II), migrates
// every binary to every target site with a matching MPI implementation,
// forms basic and extended FEAM predictions, executes the binaries with and
// without the resolution model, and tallies the prediction-accuracy
// (Table III) and resolution-impact (Table IV) results plus the §VI.C
// runtime and bundle-size statistics.
package experiment

import (
	"context"
	"fmt"
	"time"

	"feam/internal/batch"
	"feam/internal/execsim"
	"feam/internal/fault"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
)

// activateStack snapshots the site environment and activates the named
// stack the way a user would. On failure the snapshot is already restored;
// an empty key activates nothing (serial probes).
func activateStack(site *sitemodel.Site, stackKey string) (*sitemodel.StackRecord, sitemodel.Snapshot, error) {
	snap := site.SnapshotEnv()
	if stackKey == "" {
		return nil, snap, nil
	}
	rec := site.FindStack(stackKey)
	if rec == nil {
		site.RestoreEnv(snap)
		return nil, snap, fmt.Errorf("stack %s not installed", stackKey)
	}
	if err := testbed.ActivateStack(site, stackKey); err != nil {
		site.RestoreEnv(snap)
		return nil, snap, err
	}
	return rec, snap, nil
}

// SimProbeRunner adapts the ground-truth simulator to FEAM's probe-session
// interface: failures carry the simulator's failure class directly
// (missing library, transient system error) instead of making FEAM guess
// by matching substrings of the job output.
type SimProbeRunner struct {
	Sim *execsim.Simulator
}

// NewSimProbeRunner wraps a simulator as a probe runner.
func NewSimProbeRunner(sim *execsim.Simulator) *SimProbeRunner {
	return &SimProbeRunner{Sim: sim}
}

// BeginProbeBatch implements fault.Runner: the environment snapshot, stack
// lookup, and stack activation happen once for the whole probe session
// instead of once per probe; Close restores the environment. A session
// whose stack cannot be activated still opens — every probe in it reports
// the setup failure.
func (r *SimProbeRunner) BeginProbeBatch(_ context.Context, site *sitemodel.Site, stackKey string) fault.ProbeBatch {
	rec, snap, err := activateStack(site, stackKey)
	if err != nil {
		return fault.FailedBatch(fault.ProbeResult{Detail: err.Error()})
	}
	return &simProbeBatch{sim: r.Sim, site: site, rec: rec, snap: snap}
}

// simProbeBatch is one open probe session against the simulator: the stack
// environment stays activated across probes and is restored on Close.
type simProbeBatch struct {
	sim  *execsim.Simulator
	site *sitemodel.Site
	rec  *sitemodel.StackRecord
	snap sitemodel.Snapshot
}

func (b *simProbeBatch) run(art *toolchain.Artifact, extraLibDirs []string) execsim.Result {
	return b.sim.Run(execsim.Request{
		Art: art, Site: b.site, Stack: b.rec, ExtraLibDirs: extraLibDirs,
	})
}

// RunProbe implements fault.ProbeBatch.
func (b *simProbeBatch) RunProbe(_ context.Context, art *toolchain.Artifact, extraLibDirs []string) fault.ProbeResult {
	res := b.run(art, extraLibDirs)
	return fault.ProbeResult{
		Success:    res.Success(),
		Detail:     res.Detail,
		MissingLib: res.Class == execsim.FailMissingLib,
		Transient:  res.Transient(),
	}
}

// Close implements fault.ProbeBatch.
func (b *simProbeBatch) Close() { b.site.RestoreEnv(b.snap) }

// NewBatchRunner routes simulator probes through each site's batch system:
// a session activates the stack once, then every probe is submitted to the
// debug queue with the paper's retry policy, so queue waits and CPU-hour
// accounting accrue on the site's cluster — the §VI.C "running on compute
// nodes does use allocation hours" measurement. Sites without a cluster
// run their probes directly on the simulator.
func NewBatchRunner(sim *execsim.Simulator, tb *testbed.Testbed) fault.Runner {
	return &batchRunner{sim: sim, tb: tb}
}

type batchRunner struct {
	sim *execsim.Simulator
	tb  *testbed.Testbed
}

// BeginProbeBatch implements fault.Runner. A session whose stack cannot be
// activated submits nothing: every probe reports the activation failure.
func (r *batchRunner) BeginProbeBatch(ctx context.Context, site *sitemodel.Site, stackKey string) fault.ProbeBatch {
	cluster := r.tb.Clusters[site.Name]
	if cluster == nil {
		return NewSimProbeRunner(r.sim).BeginProbeBatch(ctx, site, stackKey)
	}
	rec, snap, err := activateStack(site, stackKey)
	if err != nil {
		return fault.FailedBatch(fault.ClassifyDetail(false, err.Error()))
	}
	// Per-attempt simulator: the batch layer owns the retry loop.
	oneShot := *r.sim
	oneShot.MaxAttempts = 1
	return &clusterProbeBatch{
		simProbeBatch: simProbeBatch{sim: &oneShot, site: site, rec: rec, snap: snap},
		cluster:       cluster,
	}
}

// clusterProbeBatch is one open probe session whose probes run as debug
// queue jobs on a site's cluster.
type clusterProbeBatch struct {
	simProbeBatch
	cluster *batch.Cluster
}

// RunProbe implements fault.ProbeBatch: the batch system reports only the
// job's success and output, so the result is classified from that text.
func (b *clusterProbeBatch) RunProbe(_ context.Context, art *toolchain.Artifact, extraLibDirs []string) fault.ProbeResult {
	spec := batch.ScriptSpec{
		Manager: b.cluster.Manager, JobName: "feam-probe", Queue: "debug",
		Nodes: 1, Tasks: 4, WallTime: 10 * time.Minute,
		Command: "mpiexec -n 4 " + art.Name,
	}
	result, err := b.cluster.Submit(spec, func(int) (bool, string, time.Duration) {
		res := b.run(art, extraLibDirs)
		return res.Success(), res.Detail, res.RunTime
	}, 5, 5*time.Minute)
	if err != nil {
		return fault.ClassifyDetail(false, err.Error())
	}
	return fault.ClassifyDetail(result.Success, result.Output)
}
