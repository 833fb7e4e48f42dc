package fault

import (
	"context"
	"strings"

	"feam/internal/sitemodel"
	"feam/internal/toolchain"
)

// Runner executes FEAM's probe programs (the TEC's "hello world" runs)
// through probe sessions. BeginProbeBatch opens a session against one
// (site, stack) pair and never returns nil: a session whose setup failed
// still opens, and every probe in it reports the setup failure. The stack
// key refers to whatever `module load <key>`-style selection means at the
// site; an empty key runs without an MPI stack (serial probes).
type Runner interface {
	BeginProbeBatch(ctx context.Context, site *sitemodel.Site, stackKey string) ProbeBatch
}

// ProbeResult is the structured outcome of one probe-program execution.
// It replaces substring matching on failure text: the runner that knows
// why a probe failed says so explicitly.
type ProbeResult struct {
	// Success reports a clean run.
	Success bool
	// Detail is the human-readable outcome text (job output).
	Detail string
	// MissingLib marks a failure caused by an unresolvable shared library
	// — the shared-library determinant's business, not the stack's.
	MissingLib bool
	// Transient marks a failure a retry may dodge (system wobble, injected
	// transient fault).
	Transient bool
}

// ClassifyDetail derives a ProbeResult from a batch system's job outcome,
// where only the job's success and output text are known. The
// missing-library test anchors on the loader's "=> not found" arrow — a
// bare "not found" also appears in symbol-version errors ("version
// `GLIBC_2.12' not found"), which are ABI breaks that must condemn a
// stack, not be excused as resolvable.
func ClassifyDetail(success bool, detail string) ProbeResult {
	res := ProbeResult{Success: success, Detail: detail}
	if success {
		return res
	}
	res.MissingLib = strings.Contains(detail, "=> not found")
	res.Transient = strings.Contains(detail, "transient")
	return res
}

// ProbeBatch is one open probe session against a fixed (site, stack) pair:
// several probe executions sharing whatever per-session setup the runner
// amortizes — environment activation, submission-script rendering and
// round-trip validation, job-allocation bookkeeping. A batch is used from
// one goroutine and must be closed exactly once; Close releases the
// session state (restoring any environment the session activated).
type ProbeBatch interface {
	RunProbe(ctx context.Context, art *toolchain.Artifact, extraLibDirs []string) ProbeResult
	Close()
}

// FailedBatch returns a probe session whose setup failed: every probe in
// it reports res, and Close has nothing to release.
func FailedBatch(res ProbeResult) ProbeBatch { return failedBatch{res} }

type failedBatch struct{ res ProbeResult }

// RunProbe implements ProbeBatch.
func (b failedBatch) RunProbe(context.Context, *toolchain.Artifact, []string) ProbeResult {
	return b.res
}

// Close implements ProbeBatch.
func (failedBatch) Close() {}

// FaultyRunner wraps a probe runner with an injector: before each probe
// the injector may fail the run outright, simulating batch-system or
// launch-path flakiness independent of the program under test.
type FaultyRunner struct {
	Inner Runner
	Inj   Injector
}

// BeginProbeBatch implements Runner: the inner runner's session setup is
// amortized as usual, while the injector stays consulted on every probe —
// injected flakiness is per-execution, not per-session.
func (f *FaultyRunner) BeginProbeBatch(ctx context.Context, site *sitemodel.Site, stackKey string) ProbeBatch {
	return &faultyBatch{
		inner: f.Inner.BeginProbeBatch(ctx, site, stackKey),
		inj:   f.Inj,
		key:   site.Name + "/" + stackKey,
	}
}

// SiteFaults routes each probe through its site's fault policy: a site
// with a policy in Policies gets a FaultyRunner over Inner, any other site
// Inner's session itself. Policies may change between rankings, not
// during one.
type SiteFaults struct {
	Inner    Runner
	Policies map[string]*Policy
}

// BeginProbeBatch implements Runner.
func (f SiteFaults) BeginProbeBatch(ctx context.Context, site *sitemodel.Site, stackKey string) ProbeBatch {
	if p := f.Policies[site.Name]; p != nil {
		r := &FaultyRunner{Inner: f.Inner, Inj: p}
		return r.BeginProbeBatch(ctx, site, stackKey)
	}
	return f.Inner.BeginProbeBatch(ctx, site, stackKey)
}

// faultyBatch interposes the injector in front of an open probe session.
type faultyBatch struct {
	inner ProbeBatch
	inj   Injector
	key   string
}

// RunProbe implements ProbeBatch.
func (b *faultyBatch) RunProbe(ctx context.Context, art *toolchain.Artifact, extraLibDirs []string) ProbeResult {
	if b.inj != nil {
		if err := b.inj.Fail(ctx, "probe", b.key); err != nil {
			return ProbeResult{
				Success:   false,
				Detail:    err.Error(),
				Transient: IsTransient(err),
			}
		}
	}
	return b.inner.RunProbe(ctx, art, extraLibDirs)
}

// Close implements ProbeBatch.
func (b *faultyBatch) Close() { b.inner.Close() }
