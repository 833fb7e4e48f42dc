package feam

import (
	"context"
	"fmt"
	"strconv"

	"feam/internal/elfimg"
	"feam/internal/obs"
	"feam/internal/sitemodel"
)

// EvalRequest names the inputs of one Target Evaluation Component run.
// Site is required. The binary may arrive three ways, resolved in this
// order: an explicit description (Desc), raw bytes (Binary, described
// through the memoized BDC under BinaryName), or the description bundled
// in Options.Bundle. Env may be nil; Predict then surveys Site through
// the memoized EDC.
type EvalRequest struct {
	// Desc is the binary description; nil derives it from Binary or the
	// bundle.
	Desc *BinaryDescription
	// Binary is the application image when present at the target; nil in
	// the paper's "binary not present" mode.
	Binary []byte
	// BinaryName is the name Binary is described under (defaults to the
	// bundle's or an anonymous placeholder).
	BinaryName string
	// Env is the site's environment description; nil surveys Site.
	Env *EnvironmentDescription
	// Site is the target site (required).
	Site *sitemodel.Site
	// Options configures the evaluation.
	Options EvalOptions

	// appELF is Binary already parsed, read-only; nil parses Binary
	// where it is needed.
	appELF *elfimg.File
}

// describeBinary describes req.Binary through the memoized BDC under
// req.BinaryName, or "a.out" when the request names none.
func (e *Engine) describeBinary(ctx context.Context, req EvalRequest) (*BinaryDescription, error) {
	name := req.BinaryName
	if name == "" {
		name = "a.out"
	}
	return e.Describe(ctx, req.Binary, name)
}

// Predict runs the Target Evaluation Component for one request: each
// registered determinant evaluator (Options.Evaluators overrides the
// engine's registry) records its outcome on the prediction, and a Fail
// gates off the rest — the paper's cheap-checks-first ladder.
//
// The caller must hold SiteLock(site.Name) when the site is shared across
// goroutines; evaluation temporarily mutates the site environment while
// testing candidate stacks and stages library copies when resolving.
//
// When an evaluator errors, Predict returns the partial prediction built
// so far (Ready=false, with the determinant trail up to the failure)
// alongside an error wrapping ErrProbeFailed, so callers ranking many
// sites can keep the trail for diagnosis instead of discarding the whole
// assessment. A failed survey of Site wraps ErrSiteUnavailable; an
// unsatisfiable request wraps ErrNoEnvironment.
func (e *Engine) Predict(ctx context.Context, req EvalRequest) (*Prediction, error) {
	if req.Site == nil {
		return nil, fmt.Errorf("%w: request names no site", ErrNoEnvironment)
	}
	desc := req.Desc
	if desc == nil {
		switch {
		case req.Binary != nil:
			d, err := e.describeBinary(ctx, req)
			if err != nil {
				return nil, err
			}
			desc = d
		case req.Options.Bundle != nil && req.Options.Bundle.App != nil:
			desc = req.Options.Bundle.App
			if req.Binary == nil {
				req.Binary = req.Options.Bundle.AppBytes
			}
		default:
			return nil, fmt.Errorf("%w: request carries no binary description, bytes, or bundle", ErrNoEnvironment)
		}
	}
	env := req.Env
	if env == nil {
		surveyed, err := e.Discover(ctx, req.Site)
		if err != nil {
			return nil, fmt.Errorf("%w: survey of %s failed: %w", ErrSiteUnavailable, req.Site.Name, err)
		}
		env = surveyed
	}

	opts := req.Options
	pred := &Prediction{
		Binary:         desc.Name,
		Site:           env.SiteName,
		Extended:       opts.Bundle != nil,
		Ready:          true,
		Determinants:   map[Determinant]DeterminantResult{},
		UnresolvedLibs: map[string]string{},
	}
	for _, d := range Determinants() {
		pred.Determinants[d] = DeterminantResult{Outcome: Unknown}
	}

	sp := e.tracer.Start(obs.OpEvaluate,
		obs.WithParent(obs.SpanFromContext(ctx)),
		obs.WithBinary(desc.Name), obs.WithSite(env.SiteName))
	endEval := func(ready bool, err error) {
		sp.SetAttr(obs.AttrReady, strconv.FormatBool(ready))
		sp.End(err)
	}

	evals := opts.Evaluators
	if evals == nil {
		evals = defaultLadder
	}
	ec := &EvalContext{
		Context:  ctx,
		Engine:   e,
		Desc:     desc,
		AppBytes: req.Binary,
		appELF:   req.appELF,
		Env:      env,
		Site:     req.Site,
		Opts:     &opts,
		Pred:     pred,
	}
	for _, de := range evals {
		if err := ctx.Err(); err != nil {
			pred.Ready = false
			endEval(false, err)
			return pred, err
		}
		det := de.Determinant()
		dsp := e.tracer.Start(obs.OpDeterminant,
			obs.WithParent(sp), obs.WithDeterminant(det.String()),
			obs.WithBinary(desc.Name), obs.WithSite(env.SiteName))
		ec.span = dsp
		err := de.Evaluate(ec)
		ec.span = sp
		res := pred.Determinants[det]
		dsp.SetAttr("outcome", res.Outcome.String())
		dsp.End(err)
		if err != nil {
			pred.Ready = false
			if ctx.Err() == nil {
				err = fmt.Errorf("%w: determinant %s: %w", ErrProbeFailed, det, err)
			}
			endEval(false, err)
			return pred, err
		}
		if res.Outcome == Fail {
			endEval(false, nil)
			return pred, nil
		}
	}

	pred.ConfigScript = configScript(pred, desc, opts.Config)
	endEval(pred.Ready, nil)
	return pred, nil
}
