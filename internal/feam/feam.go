// Package feam implements the paper's contribution: FEAM, a Framework for
// Efficient Application Migration. It predicts whether MPI application
// binaries are ready to execute at target computing sites and raises the
// success rate by resolving missing shared libraries with copies gathered at
// a guaranteed execution environment.
//
// The package mirrors the paper's architecture exactly (Figure 2):
//
//   - BDC, the Binary Description Component (bdc.go), gathers everything
//     Figure 3 lists about an application binary and its dependencies.
//   - EDC, the Environment Discovery Component (edc.go), gathers everything
//     Figure 4 lists about a computing site.
//   - TEC, the Target Evaluation Component (tec.go), matches the two and
//     decides execution readiness per the four-determinant prediction model
//     (Figure 1), running MPI "hello world" probes to confirm stack
//     usability, and applying the resolution model to missing shared
//     libraries.
//
// FEAM runs in two phases: an optional source phase at a guaranteed
// execution environment (produces a portable Bundle) and a required target
// phase at each target site (produces a Prediction and a site configuration
// script). Predictions made with only the target phase are "basic";
// adding the source phase enables the extended compatibility tests and the
// resolution model.
package feam

import "fmt"

// Determinant is one of the prediction model's four questions (Figure 1).
type Determinant int

const (
	// DetISA: was the application compiled for a compatible ISA?
	DetISA Determinant = iota
	// DetCLibrary: are the application's C library requirements met?
	DetCLibrary
	// DetMPIStack: is there a compatible MPI stack functioning?
	DetMPIStack
	// DetSharedLibs: are all required shared library versions available?
	DetSharedLibs
	// DetABI: does every undefined dynamic symbol of the binary resolve
	// against the site's exported-symbol index? This fifth determinant is
	// not part of the paper's Figure 1 ladder; it runs under the
	// ABIEvaluators ladder and stays "not evaluated" under the default one.
	DetABI
)

func (d Determinant) String() string {
	switch d {
	case DetISA:
		return "ISA compatibility"
	case DetCLibrary:
		return "C library compatibility"
	case DetMPIStack:
		return "MPI stack compatibility"
	case DetSharedLibs:
		return "shared library compatibility"
	case DetABI:
		return "ABI symbol resolution"
	default:
		return fmt.Sprintf("Determinant(%d)", int(d))
	}
}

// Determinants lists the model's questions in evaluation order: ISA and C
// library first (cheap gates), then MPI stack and shared libraries (§V.C),
// and finally the symbol-level ABI check (evaluated only under the
// ABIEvaluators ladder).
func Determinants() []Determinant {
	return []Determinant{DetISA, DetCLibrary, DetMPIStack, DetSharedLibs, DetABI}
}

// Outcome is a determinant's verdict.
type Outcome int

const (
	// Unknown: not evaluated (an earlier gate failed).
	Unknown Outcome = iota
	// Pass: compatible as-is.
	Pass
	// Fail: incompatible.
	Fail
	// Resolved: incompatible as-is but fixed by the resolution model.
	Resolved
)

func (o Outcome) String() string {
	switch o {
	case Unknown:
		return "not evaluated"
	case Pass:
		return "pass"
	case Fail:
		return "fail"
	case Resolved:
		return "resolved"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// DeterminantResult pairs an outcome with its evidence.
type DeterminantResult struct {
	Outcome Outcome
	Detail  string
}
