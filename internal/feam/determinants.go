package feam

import (
	"context"
	"fmt"
	"path"
	"sort"
	"strings"

	"feam/internal/elfimg"
	"feam/internal/obs"
	"feam/internal/sitemodel"
)

// EvalContext carries one evaluation's state through the determinant
// ladder. Evaluators read the description and environment and record their
// outcome on Pred; the shared-library evaluator may additionally stage
// library copies onto the site.
type EvalContext struct {
	Context context.Context
	Engine  *Engine

	Desc *BinaryDescription
	// AppBytes is the application image when present at the target; nil in
	// the paper's "binary not present" mode (a synthetic probe image is
	// reconstructed from Desc).
	AppBytes []byte
	Env      *EnvironmentDescription
	Site     *sitemodel.Site
	Opts     *EvalOptions
	Pred     *Prediction

	// appELF is AppBytes already parsed, shared and read-only; nil when
	// the caller did not parse it.
	appELF *elfimg.File
	// span is the current parent span — the running determinant's during
	// ladder evaluation, the staging transaction's inside stagePlan. Probe
	// attempts, staging operations, and retry events attach under it.
	span *obs.Span
}

// DeterminantEvaluator answers one of the prediction model's execution
// readiness questions. Evaluators run in registration order and record
// their outcome on the prediction; a Fail outcome gates off the evaluators
// after it (the paper's §V.C cheap-checks-first ladder). A returned error
// aborts the evaluation entirely (infrastructure failure, not a verdict).
type DeterminantEvaluator interface {
	// Determinant identifies the question this evaluator answers.
	Determinant() Determinant
	Evaluate(ec *EvalContext) error
}

// defaultLadder is the ladder a request without EvalOptions.Evaluators
// runs. Evaluators are stateless values, so one slice serves every
// request; nothing may modify it.
var defaultLadder = DefaultEvaluators()

// DefaultEvaluators returns the full determinant registry in the paper's
// §V.C order: ISA, C library, MPI stack, shared libraries.
func DefaultEvaluators() []DeterminantEvaluator {
	return []DeterminantEvaluator{
		ISAEvaluator{},
		CLibraryEvaluator{},
		MPIStackEvaluator{},
		SharedLibsEvaluator{},
	}
}

// ISAEvaluator checks architecture and word-size compatibility.
type ISAEvaluator struct{}

func (ISAEvaluator) Determinant() Determinant { return DetISA }

func (ISAEvaluator) Evaluate(ec *EvalContext) error {
	desc, env := ec.Desc, ec.Env
	if desc.ISA != env.ISA || desc.Bits != env.Bits {
		ec.Pred.fail(DetISA, fmt.Sprintf("binary is %s but site is %s (%d-bit)",
			desc.Format, env.UnameProcessor, env.Bits))
		return nil
	}
	ec.Pred.pass(DetISA, fmt.Sprintf("%s matches site processor %s", desc.Format, env.UnameProcessor))
	return nil
}

// CLibraryEvaluator checks that the site's C library version satisfies the
// binary's requirement.
type CLibraryEvaluator struct{}

func (CLibraryEvaluator) Determinant() Determinant { return DetCLibrary }

func (CLibraryEvaluator) Evaluate(ec *EvalContext) error {
	desc, env, pred := ec.Desc, ec.Env, ec.Pred
	switch {
	case desc.RequiredGlibc.IsZero():
		pred.pass(DetCLibrary, "binary has no C library version requirement")
	case env.Glibc.IsZero():
		pred.pass(DetCLibrary, "site C library version undetermined; assuming compatible")
	case env.Glibc.AtLeast(desc.RequiredGlibc):
		pred.pass(DetCLibrary, fmt.Sprintf("site glibc %s >= required %s", env.Glibc, desc.RequiredGlibc))
	default:
		pred.fail(DetCLibrary, fmt.Sprintf("site glibc %s < required %s", env.Glibc, desc.RequiredGlibc))
	}
	return nil
}

// MPIStackEvaluator finds a compatible, functioning MPI stack. PresenceOnly
// skips the probe-program usability tests and accepts stack presence alone
// — the ablation study's "no probes" configuration; it is equivalent to
// evaluating without a Runner.
type MPIStackEvaluator struct {
	PresenceOnly bool
	// ABIStandard additionally admits the "ABI-standard" compatibility
	// class: when no same-implementation stack works, a stack of any
	// implementation is accepted if its libraries export the standardized
	// MPI symbol surface the binary imports (arXiv:2308.11214). Off by
	// default — the paper's ladder matches by implementation name only.
	ABIStandard bool
}

func (MPIStackEvaluator) Determinant() Determinant { return DetMPIStack }

func (m MPIStackEvaluator) Evaluate(ec *EvalContext) error {
	if !ec.Desc.UsesMPI() {
		ec.Pred.pass(DetMPIStack, "not an MPI application")
		return nil
	}
	selected, detail := selectStack(ec, m.PresenceOnly)
	if selected == nil && m.ABIStandard {
		selected, detail = selectStackABIStandard(ec, detail)
	}
	if selected == nil {
		ec.Pred.fail(DetMPIStack, detail)
		return nil
	}
	ec.Pred.SelectedStack = selected
	ec.Pred.pass(DetMPIStack, detail)
	return nil
}

// SharedLibsEvaluator checks shared-library availability under the
// selected stack's environment and, when a bundle is present, applies the
// resolution model to missing libraries. DisableResolution turns the model
// off entirely; ShallowResolution disables its recursive part (copies are
// staged without resolving their own dependencies). Both exist for the
// ablation study — the paper's model is recursive (§IV).
type SharedLibsEvaluator struct {
	DisableResolution bool
	ShallowResolution bool
}

func (SharedLibsEvaluator) Determinant() Determinant { return DetSharedLibs }

func (s SharedLibsEvaluator) Evaluate(ec *EvalContext) error {
	pred, site, opts := ec.Pred, ec.Site, ec.Opts
	app := ec.appELF
	if app == nil {
		probe := ec.AppBytes
		if probe == nil {
			img, err := syntheticImage(ec.Desc)
			if err != nil {
				return err
			}
			probe = img
		}
		f, err := elfimg.Parse(probe)
		if err != nil {
			return err
		}
		app = f
	}
	snap := site.SnapshotEnv()
	loadStackEnv(site, pred.SelectedStack)
	missing, err := MissingLibraries(site, app, ec.Desc.Name)
	site.RestoreEnv(snap)
	if err != nil {
		return err
	}
	pred.MissingLibs = missing
	resolve := opts.Resolve && opts.Bundle != nil && !s.DisableResolution
	switch {
	case len(missing) == 0:
		pred.pass(DetSharedLibs, "all required shared libraries present")
	case resolve:
		resolveMissing(ec, missing, s.ShallowResolution || opts.ShallowResolution)
		if len(pred.UnresolvedLibs) == 0 {
			pred.Determinants[DetSharedLibs] = DeterminantResult{
				Outcome: Resolved,
				Detail:  fmt.Sprintf("%d missing libraries resolved from bundle", len(pred.ResolvedLibs)),
			}
		} else {
			var parts []string
			for name, why := range pred.UnresolvedLibs {
				parts = append(parts, name+" ("+why+")")
			}
			sort.Strings(parts)
			pred.fail(DetSharedLibs, "unresolvable: "+strings.Join(parts, ", "))
		}
	default:
		pred.fail(DetSharedLibs, "missing: "+strings.Join(missing, ", "))
	}
	return nil
}

// deriveStageDir builds the default staging directory for resolved library
// copies. The binary's content hash and the site name make it unique: two
// different binaries sharing a file name, or one binary evaluated at
// several sites that happen to share a filesystem, cannot collide.
func deriveStageDir(desc *BinaryDescription, siteName string) string {
	h := desc.ContentHash
	if h == "" {
		h = "nohash"
	} else if len(h) > 12 {
		h = h[:12]
	}
	return fmt.Sprintf("/home/user/feam/staged/%s-%s-%s", path.Base(desc.Name), h, siteName)
}
