// abi.go wires the internal/abicheck symbol-resolution analyzer into the
// engine: a fifth DeterminantEvaluator in the ABIEvaluators ladder, the
// per-site symbol index kept as a derived value (symIndexKind), and the
// cross-tool agreement mode that runs the independent soname-closure
// checker and publishes abi_agree/abi_disagree counters (the
// tool-agreement measurement of Sochat & Haines, arXiv:2212.03364).
package feam

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"feam/internal/abicheck"
	"feam/internal/elfimg"
	"feam/internal/envmgmt"
	"feam/internal/ldso"
	"feam/internal/obs"
	"feam/internal/sitemodel"
)

// ABIEvaluator is the fifth determinant: every undefined dynamic symbol
// of the binary must resolve against the site's exported-symbol index.
// It runs under the selected stack's environment (like the shared-library
// evaluator), so a chosen MPI stack's exports are part of the surface.
type ABIEvaluator struct {
	// Agreement additionally runs the independent soname-closure checker
	// over the same binary and records whether the two tools agree, via
	// the abi_agree/abi_disagree counters and the report's Agreement
	// field. The determinant verdict always comes from the index
	// resolver; agreement is a measurement, not a vote.
	Agreement bool
}

func (ABIEvaluator) Determinant() Determinant { return DetABI }

func (a ABIEvaluator) Evaluate(ec *EvalContext) error {
	site, pred := ec.Site, ec.Pred
	probe := ec.AppBytes
	if probe == nil {
		img, err := syntheticImage(ec.Desc)
		if err != nil {
			return err
		}
		probe = img
	}
	snap := site.SnapshotEnv()
	loadStackEnv(site, pred.SelectedStack)
	report, err := ec.Engine.abiReport(site, probe, ec.Desc.Name, a.Agreement, ec.span)
	site.RestoreEnv(snap)
	if err != nil {
		return err
	}
	pred.ABI = report
	if report.OK() {
		pred.pass(DetABI, report.Summary())
		return nil
	}
	diff := report.Diff()
	if len(diff) > 4 {
		diff = append(diff[:4], fmt.Sprintf("and %d more", len(diff)-4))
	}
	pred.fail(DetABI, report.Summary()+": "+strings.Join(diff, "; "))
	return nil
}

// ABIEvaluators returns the extended determinant ladder: the paper's four
// evaluators with the ABI-standard MPI stack class enabled, plus the
// symbol-resolution evaluator. Pass it via EvalOptions.Evaluators for an
// ABI-checked evaluation.
func ABIEvaluators(agreement bool) []DeterminantEvaluator {
	return []DeterminantEvaluator{
		ISAEvaluator{},
		CLibraryEvaluator{},
		MPIStackEvaluator{ABIStandard: true},
		SharedLibsEvaluator{},
		ABIEvaluator{Agreement: agreement},
	}
}

// ABICheck resolves a binary's dynamic symbols against one site's
// exported-symbol index, outside any prediction: the entry point behind
// cmd/feam-abi and GET /v1/abi/{site}. The site's index is reused while
// its env-fingerprint/content-generation stamp still matches. Callers
// coordinating with concurrent surveys should hold the engine's SiteLock,
// as the server handler does.
func (e *Engine) ABICheck(ctx context.Context, site *sitemodel.Site, bin []byte, name string, agreement bool) (*abicheck.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.abiReport(site, bin, name, agreement, obs.SpanFromContext(ctx))
}

// abiReport builds (or reuses) the site index, resolves the binary, and
// optionally runs the agreement comparison.
func (e *Engine) abiReport(site *sitemodel.Site, bin []byte, name string, agreement bool, parent *obs.Span) (*abicheck.Report, error) {
	ix := e.symbolIndex(site, parent)
	sp := e.tracer.Start(obs.OpABICheck,
		obs.WithParent(parent), obs.WithSite(site.Name), obs.WithBinary(name))
	report, err := abicheck.Check(bin, name, ix)
	if err != nil {
		sp.End(err)
		return nil, err
	}
	sp.SetAttr(obs.AttrSuccess, strconv.FormatBool(report.OK()))
	if agreement {
		opts := ldso.Options{
			FS:          site.FS(),
			LibraryPath: envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH")),
			DefaultDirs: site.DefaultLibDirs(),
		}
		ag, aerr := abicheck.Compare(report, bin, name, opts)
		if aerr != nil {
			sp.End(aerr)
			return nil, aerr
		}
		counter := "abi_disagree"
		if ag.Agree {
			counter = "abi_agree"
		}
		e.reg.Counter(counter).Add(1)
		sp.SetAttr("agree", strconv.FormatBool(ag.Agree))
	}
	sp.End(nil)
	return report, nil
}

// symbolIndex serves the per-site exported-symbol index, kept under
// contentStamp: both a stack-environment change and any library mutation
// invalidate it, the same rule the shard-root list uses. Only a real
// build emits an OpSymIndex span.
func (e *Engine) symbolIndex(site *sitemodel.Site, parent *obs.Span) *abicheck.Index {
	stamp := contentStamp(site)
	ix, _ := deriveCached(e, symIndexKind, site, "", stamp, func() (*abicheck.Index, error) {
		sp := e.tracer.Start(obs.OpSymIndex,
			obs.WithParent(parent), obs.WithSite(site.Name))
		ix := abicheck.BuildIndex(site, nil, stamp)
		sp.SetAttr(obs.AttrLibs, strconv.Itoa(ix.Libraries()))
		sp.End(nil)
		return ix, nil
	})
	return ix
}

// selectStackABIStandard is the MPI determinant's ABI-standard fallback:
// when no same-implementation stack is usable, admit any installed stack
// whose libraries export the MPI entry points the binary actually
// imports (or the full standardized surface when the binary is not at
// hand). prior carries the same-implementation failure detail for the
// combined refusal message.
func selectStackABIStandard(ec *EvalContext, prior string) (*StackInfo, string) {
	cls := elfimg.Class64
	if ec.Desc.Bits == 32 {
		cls = elfimg.Class32
	}
	needs := mpiImportNames(ec.AppBytes)
	if len(needs) == 0 {
		needs = abicheck.StandardMPISymbols
	}
	for i := range ec.Env.Available {
		cand := &ec.Env.Available[i]
		if cand.Impl == ec.Desc.MPIImpl || cand.Prefix == "" {
			continue
		}
		ix := abicheck.BuildIndex(ec.Site, []string{cand.Prefix + "/lib"}, 0)
		if ix.ProvidesAll(needs, cls, ec.Desc.ISA) {
			return cand, fmt.Sprintf("%s exports the standardized MPI symbol surface (ABI-standard class, %d entry points)",
				cand.Key, len(needs))
		}
	}
	return nil, prior + "; no installed stack exports the standardized MPI symbol surface"
}

// mpiImportNames extracts the MPI_-prefixed imported symbol names of a
// binary image (nil input or unparsable images yield none).
func mpiImportNames(bin []byte) []string {
	if bin == nil {
		return nil
	}
	var p elfimg.Parser
	v, err := p.Parse(bin)
	if err != nil {
		return nil
	}
	var names []string
	v.Imports(func(sym elfimg.SymbolRef) bool {
		if len(sym.Name) > 4 && string(sym.Name[:4]) == "MPI_" {
			names = append(names, string(sym.Name))
		}
		return true
	})
	return names
}
