package experiment

import (
	"context"
	"fmt"

	"feam/internal/execsim"
	"feam/internal/feam"
	"feam/internal/metrics"
	"feam/internal/testbed"
	"feam/internal/workload"
)

// AblationConfig selects which FEAM mechanism to disable.
type AblationConfig struct {
	// Name labels the configuration.
	Name string
	// DisableResolution skips the resolution model entirely.
	DisableResolution bool
	// ShallowResolution stages copies without the recursive dependency
	// checks of §IV.
	ShallowResolution bool
	// NoProbes disables the hello-world stack usability tests; stack
	// presence alone satisfies the MPI determinant.
	NoProbes bool
}

// AblationConfigs returns the standard ablation ladder: the full system and
// one configuration per disabled mechanism.
func AblationConfigs() []AblationConfig {
	return []AblationConfig{
		{Name: "full"},
		{Name: "no-resolution", DisableResolution: true},
		{Name: "shallow-resolution", ShallowResolution: true},
		{Name: "no-probes", NoProbes: true},
	}
}

// Evaluators builds the determinant registry this configuration runs with:
// the full §V.C ladder, with individual evaluators reconfigured rather
// than the evaluation special-cased.
func (cfg AblationConfig) Evaluators() []feam.DeterminantEvaluator {
	return []feam.DeterminantEvaluator{
		feam.ISAEvaluator{},
		feam.CLibraryEvaluator{},
		feam.MPIStackEvaluator{PresenceOnly: cfg.NoProbes},
		feam.SharedLibsEvaluator{
			DisableResolution: cfg.DisableResolution,
			ShallowResolution: cfg.ShallowResolution,
		},
	}
}

// AblationResult summarizes one configuration across the migration matrix.
type AblationResult struct {
	Config AblationConfig
	// Accuracy is the extended-prediction confusion per suite.
	Accuracy map[workload.Suite]*metrics.Confusion
	// Success is the post-configuration execution success per suite.
	Success map[workload.Suite]*metrics.Rate
}

// RunAblations evaluates every ablation configuration over the migration
// matrix. One engine spans all configurations: the source-phase bundles,
// binary descriptions, and environment surveys are computed once and
// shared (the ablations are all target-side, differing only in their
// determinant registries).
func RunAblations(tb *testbed.Testbed, ts *TestSet, sim *execsim.Simulator) ([]AblationResult, error) {
	ctx := context.Background()
	eng := feam.New()
	runner := NewSimProbeRunner(sim)

	// Source phases once.
	bundles := map[string]*feam.Bundle{}
	for _, bin := range ts.Binaries {
		site := tb.ByName[bin.BuildSite]
		snap := site.SnapshotEnv()
		if err := testbed.ActivateStack(site, bin.StackKey); err != nil {
			site.RestoreEnv(snap)
			return nil, err
		}
		bundle, _, err := eng.RunSourcePhase(ctx, configFor(tb, bin.BuildSite, "source", bin.Path), site, runner)
		site.RestoreEnv(snap)
		if err != nil {
			return nil, fmt.Errorf("experiment: ablation source phase %s: %v", bin.ID(), err)
		}
		bundles[bin.ID()] = bundle
	}

	// Environment descriptions once per target site, before any staging
	// mutates the sites (every configuration sees the same pristine
	// survey).
	envs := map[string]*feam.EnvironmentDescription{}
	for _, site := range tb.Sites {
		env, err := eng.Discover(ctx, site)
		if err != nil {
			return nil, err
		}
		envs[site.Name] = env
	}

	migs := Migrations(tb, ts)
	var results []AblationResult
	for _, cfg := range AblationConfigs() {
		res := AblationResult{
			Config:   cfg,
			Accuracy: map[workload.Suite]*metrics.Confusion{workload.NPB: {}, workload.SPECMPI: {}},
			Success:  map[workload.Suite]*metrics.Rate{workload.NPB: {}, workload.SPECMPI: {}},
		}
		evaluators := cfg.Evaluators()
		for _, mig := range migs {
			target := tb.ByName[mig.Target]
			bin := mig.Bin
			desc, err := eng.Describe(ctx, bin.Artifact.Bytes, bin.Path)
			if err != nil {
				return nil, err
			}
			opts := feam.EvalOptions{
				Bundle:     bundles[bin.ID()],
				Runner:     runner,
				Resolve:    true,
				Evaluators: evaluators,
				StageDir:   fmt.Sprintf("/home/user/feam/ablate-%s/%s", cfg.Name, bin.ID()),
			}
			pred, err := eng.Predict(ctx, feam.EvalRequest{
				Desc: desc, Binary: bin.Artifact.Bytes, Env: envs[mig.Target], Site: target, Options: opts,
			})
			if err != nil {
				return nil, err
			}
			stackKey := pred.StackKey()
			if stackKey == "" {
				stackKey = defaultStackChoice(target, bin)
			}
			rec := target.FindStack(stackKey)
			actual := runAtSiteClass(sim, bin.Artifact, target, rec, pred.ExtraLibDirs())
			suite := bin.Code.Suite
			res.Accuracy[suite].Add(pred.Ready, actual.Success())
			res.Success[suite].Add(actual.Success())
		}
		results = append(results, res)
	}
	return results, nil
}
