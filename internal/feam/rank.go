package feam

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"feam/internal/elfimg"
	"feam/internal/obs"
	"feam/internal/sitemodel"
)

// SiteAssessment is one site's evaluation in a multi-site survey.
type SiteAssessment struct {
	Site       string
	Prediction *Prediction
	// Err records a discovery/evaluation failure at the site. A failing
	// site degrades to an assessment carrying Err (and, when evaluation
	// got far enough, a partial Prediction with the determinant trail up
	// to the fault) instead of poisoning the whole survey.
	Err error
}

// RankSites surveys and evaluates every candidate site with the engine's
// worker pool and orders the results best-first — the paper's headline
// use case: "For scientists who do not have much experience,
// time, or support to explore new computing sites ... an efficient
// automated solution for quickly assessing many new computing sites."
//
// Ordering: ready sites first (those needing no resolution ahead of those
// needing staged libraries), then not-ready sites by how far they got
// through the determinant ladder, then failed surveys. Ties keep the
// caller's site order.
//
// Sites are assessed by a fixed set of up to Workers() goroutines, each
// pulling the next unassessed site; work on any single site is serialized
// through the engine's per-site locks, so the same site may safely appear
// in concurrent surveys (or be concurrently evaluated by other engine
// callers holding SiteLock).
func (e *Engine) RankSites(ctx context.Context, desc *BinaryDescription, appBytes []byte, sites []*sitemodel.Site, opts EvalOptions) []SiteAssessment {
	// Every site's shared-library check resolves the same binary: parse
	// it once here rather than at each site. A parse failure is left to
	// each site's own check to report.
	var appELF *elfimg.File
	if appBytes != nil {
		appELF, _ = elfimg.Parse(appBytes)
	}
	workers := e.Workers()
	out := make([]SiteAssessment, len(sites))
	if workers > len(sites) {
		workers = len(sites)
	}
	if workers <= 1 {
		for i, site := range sites {
			out[i] = e.assessSite(ctx, desc, appBytes, appELF, site, opts)
		}
	} else {
		// A fixed set of workers pulls site indices: each worker's stack
		// grows once through the deep evaluation and is reused for every
		// site it assesses.
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(sites) {
						return
					}
					out[i] = e.assessSite(ctx, desc, appBytes, appELF, sites[i], opts)
				}
			}()
		}
		wg.Wait()
	}
	// Workers wrote results at their input index, so the stable sort
	// preserves the caller's order on equal scores regardless of which
	// goroutine finished first.
	sort.SliceStable(out, func(i, j int) bool {
		return assessmentScore(out[i]) > assessmentScore(out[j])
	})
	return out
}

// assessSite surveys and evaluates one site under its serialization lock.
// Failures degrade gracefully: an evaluator error keeps the partial
// prediction (the determinant trail up to the fault) beside Err, and a
// panicking evaluator or runner is contained to this site's assessment
// rather than taking down the whole survey.
func (e *Engine) assessSite(ctx context.Context, desc *BinaryDescription, appBytes []byte, appELF *elfimg.File, site *sitemodel.Site, opts EvalOptions) (a SiteAssessment) {
	a = SiteAssessment{Site: site.Name}
	binName := ""
	if desc != nil {
		binName = desc.Name
	}
	sp := e.tracer.Start(obs.OpAssess,
		obs.WithParent(obs.SpanFromContext(ctx)),
		obs.WithSite(site.Name), obs.WithBinary(binName))
	defer func() {
		if r := recover(); r != nil {
			a.Err = fmt.Errorf("%w: site %s assessment panicked: %v", ErrProbeFailed, site.Name, r)
		}
		sp.End(a.Err)
	}()
	if err := ctx.Err(); err != nil {
		a.Err = err
		return a
	}
	lock := e.SiteLock(site.Name)
	lock.Lock()
	defer lock.Unlock()
	ctx = obs.ContextWithSpan(ctx, sp)
	env, err := e.Discover(ctx, site)
	if err != nil {
		a.Err = fmt.Errorf("%w: survey of %s failed: %w", ErrSiteUnavailable, site.Name, err)
		return a
	}
	pred, err := e.Predict(ctx, EvalRequest{
		Desc: desc, Binary: appBytes, appELF: appELF,
		Env: env, Site: site, Options: opts,
	})
	a.Prediction = pred
	a.Err = err
	return a
}

// assessmentScore orders assessments: higher is better.
func assessmentScore(a SiteAssessment) int {
	if a.Err != nil || a.Prediction == nil {
		return -1
	}
	p := a.Prediction
	if p.Ready {
		if len(p.ResolvedLibs) == 0 {
			return 100 // runs as-is
		}
		return 90 // runs with staged libraries
	}
	// Credit for every determinant passed before the failure.
	score := 0
	for _, d := range Determinants() {
		switch p.Determinants[d].Outcome {
		case Pass, Resolved:
			score += 10
		case Fail:
			return score
		}
	}
	return score
}
