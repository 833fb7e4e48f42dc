package scenario

import (
	"context"
	"fmt"
	"time"

	"feam/internal/batch"
	"feam/internal/fault"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
)

// BatchRunner routes every probe execution through the site's simulated
// resource manager instead of invoking it directly: each probe session
// renders a native submission script for the site's manager flavor (PBS,
// SGE, SLURM) with the %CMD% placeholder, parses it back to confirm
// nothing was lost — the round-trip FEAM performs on user-supplied
// templates — and then submits every probe through the site's debug queue
// with its own command substituted, so probe runs pay queue wait and show
// up in CPU-hour accounting. Moved here from feam-testbed so both the CLI
// and the simulator share it.
type BatchRunner struct {
	Inner fault.Runner
	TB    *testbed.Testbed
}

const (
	probeQueue    = "debug"
	probeWalltime = 10 * time.Minute
	probeRuntime  = 30 * time.Second
)

// BeginProbeBatch implements fault.Runner: the submission-script template
// is rendered, parsed back, and validated once per probe session instead
// of once per probe, and the inner runner's own session is opened once
// alongside it. Each probe then submits a copy of the validated spec
// carrying its own command. Sites without a cluster (imported images) run
// probes directly in the inner runner's session.
func (r *BatchRunner) BeginProbeBatch(ctx context.Context, site *sitemodel.Site, stackKey string) fault.ProbeBatch {
	cluster := r.TB.Clusters[site.Name]
	if cluster == nil {
		return r.Inner.BeginProbeBatch(ctx, site, stackKey)
	}
	spec := batch.ScriptSpec{
		Manager:  r.TB.Specs[site.Name].Manager,
		JobName:  "feam-probe",
		Queue:    probeQueue,
		Nodes:    1,
		Tasks:    4,
		WallTime: probeWalltime,
		Command:  batch.CmdPlaceholder,
	}
	parsed, err := batch.Parse(batch.Generate(spec))
	if err != nil {
		return fault.FailedBatch(fault.ClassifyDetail(false, "batch: generated script unparseable: "+err.Error()))
	}
	if parsed.Manager != spec.Manager || parsed.Command != batch.CmdPlaceholder {
		return fault.FailedBatch(fault.ClassifyDetail(false,
			fmt.Sprintf("batch: script round-trip lost state (%s %q)", parsed.Manager, parsed.Command)))
	}
	return &clusterProbeBatch{
		cluster: cluster,
		spec:    parsed,
		inner:   r.Inner.BeginProbeBatch(ctx, site, stackKey),
	}
}

// clusterProbeBatch is one open probe session against a site's cluster: the
// validated script spec is reused for every submission, with only the probe
// command swapped in.
type clusterProbeBatch struct {
	cluster *batch.Cluster
	spec    batch.ScriptSpec
	inner   fault.ProbeBatch
}

// RunProbe implements fault.ProbeBatch.
func (b *clusterProbeBatch) RunProbe(ctx context.Context, art *toolchain.Artifact, extraLibDirs []string) fault.ProbeResult {
	spec := b.spec
	spec.Command = fmt.Sprintf("mpirun -np %d ./%s", spec.Nodes*spec.Tasks, art.Name)
	var last fault.ProbeResult
	res, err := b.cluster.Submit(spec, func(int) (bool, string, time.Duration) {
		last = b.inner.RunProbe(ctx, art, extraLibDirs)
		return last.Success, last.Detail, probeRuntime
	}, 1, 0)
	if err != nil {
		return fault.ClassifyDetail(false, "batch: "+err.Error())
	}
	if res.Output == last.Detail {
		// The job ran the probe and its output is the probe's own detail:
		// keep the inner runner's structured classification.
		return fault.ProbeResult{
			Success:    res.Success,
			Detail:     res.Output,
			MissingLib: last.MissingLib,
			Transient:  last.Transient,
		}
	}
	// Queue-level outcome (walltime kill, scheduler text): only the job
	// output is known, so classify that text.
	return fault.ClassifyDetail(res.Success, res.Output)
}

// Close implements fault.ProbeBatch.
func (b *clusterProbeBatch) Close() { b.inner.Close() }
