package abicheck

import (
	"fmt"
	"strings"

	"feam/internal/elfimg"
	"feam/internal/ldso"
)

// SymbolVerdict is one import's resolution outcome inside a Report.
type SymbolVerdict struct {
	Symbol   string  `json:"symbol"`
	Version  string  `json:"version,omitempty"`
	Library  string  `json:"library,omitempty"`
	Verdict  Verdict `json:"verdict"`
	Provider string  `json:"provider,omitempty"`
}

// Report is the materialized result of resolving one binary against one
// site index: per-symbol verdicts plus the counts the determinant trail
// and the /v1/abi endpoint render.
type Report struct {
	Binary    string `json:"binary"`
	Site      string `json:"site"`
	Libraries int    `json:"libraries"`

	Total     int `json:"symbols"`
	Resolved  int `json:"resolved"`
	Missing   int `json:"missing"`
	Mismatch  int `json:"version_mismatch"`
	Conflicts int `json:"class_conflict"`

	// MPIImports/MPIResolved count the MPI_-prefixed subset: when every
	// MPI entry point resolves, the standardized symbol surface is
	// satisfied regardless of which implementation exports it.
	MPIImports  int `json:"mpi_imports"`
	MPIResolved int `json:"mpi_resolved"`

	Symbols   []SymbolVerdict `json:"verdicts,omitempty"`
	Agreement *Agreement      `json:"agreement,omitempty"`
}

// OK reports whether every import resolved.
func (r *Report) OK() bool { return r.Missing+r.Mismatch+r.Conflicts == 0 }

// Summary is the one-line verdict count for determinant details and logs.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d symbols: %d resolved, %d missing, %d version-mismatch, %d class-conflict (%d libraries indexed)",
		r.Total, r.Resolved, r.Missing, r.Mismatch, r.Conflicts, r.Libraries)
}

// Diff returns the determinant-trail lines for every non-resolved
// symbol, in symbol-table order — what changed between "sonames present"
// and "symbols bind".
func (r *Report) Diff() []string {
	var out []string
	for _, sv := range r.Symbols {
		if sv.Verdict == VerdictResolved {
			continue
		}
		sym := sv.Symbol
		if sv.Version != "" {
			sym += "@" + sv.Version
		}
		line := fmt.Sprintf("%s: %s", sym, sv.Verdict)
		if sv.Provider != "" {
			line += " (nearest provider " + sv.Provider + ")"
		}
		out = append(out, line)
	}
	return out
}

// CheckView resolves every imported dynamic symbol of v against the
// index and materializes the full report.
func CheckView(v *elfimg.View, name string, ix *Index) *Report {
	r := &Report{Binary: name, Site: ix.site, Libraries: ix.Libraries()}
	cls, mach := v.Class(), v.Machine()
	v.Imports(func(sym elfimg.SymbolRef) bool {
		verdict, prov := ix.lookup(sym.Name, sym.Version, cls, mach)
		sv := SymbolVerdict{
			Symbol:   string(sym.Name),
			Version:  string(sym.Version),
			Library:  string(sym.Library),
			Verdict:  verdict,
			Provider: prov,
		}
		r.Total++
		switch verdict {
		case VerdictResolved:
			r.Resolved++
		case VerdictMissing:
			r.Missing++
		case VerdictVersionMismatch:
			r.Mismatch++
		case VerdictClassConflict:
			r.Conflicts++
		}
		if strings.HasPrefix(sv.Symbol, "MPI_") {
			r.MPIImports++
			if verdict == VerdictResolved {
				r.MPIResolved++
			}
		}
		r.Symbols = append(r.Symbols, sv)
		return true
	})
	return r
}

// Check parses the binary and resolves it against the index.
func Check(bin []byte, name string, ix *Index) (*Report, error) {
	var p elfimg.Parser
	v, err := p.Parse(bin)
	if err != nil {
		return nil, fmt.Errorf("abicheck: %s: %w", name, err)
	}
	return CheckView(v, name, ix), nil
}

// Agreement records whether the index resolver and the independent
// soname-closure checker (eager symbol binding over the ldd-style NEEDED
// graph) reach the same overall verdict for a binary — the cross-tool
// agreement measurement of Sochat & Haines. The two tools genuinely
// differ: the closure checker only binds against libraries reachable
// through DT_NEEDED and skips versioned imports whose declared provider
// never loaded, while the index sees the whole site.
type Agreement struct {
	Agree     bool   `json:"agree"`
	IndexOK   bool   `json:"index_ok"`
	ClosureOK bool   `json:"closure_ok"`
	Detail    string `json:"detail,omitempty"`
}

// Compare runs the soname-closure checker over the same binary and
// attaches the agreement verdict to the report. The comparison is
// symbol-level on both sides: the closure verdict counts only undefined
// symbols (missing sonames are the shared-library determinant's job).
func Compare(r *Report, bin []byte, name string, opts ldso.Options) (*Agreement, error) {
	opts.CheckSymbols = true
	res, err := ldso.ResolveBytes(bin, name, opts)
	if err != nil {
		return nil, fmt.Errorf("abicheck: closure check for %s: %w", name, err)
	}
	ag := &Agreement{
		IndexOK:   r.OK(),
		ClosureOK: len(res.UndefinedSymbols) == 0,
	}
	ag.Agree = ag.IndexOK == ag.ClosureOK
	if !ag.Agree {
		switch {
		case ag.IndexOK:
			var syms []string
			for i, u := range res.UndefinedSymbols {
				if i == 3 {
					syms = append(syms, "...")
					break
				}
				syms = append(syms, u.Symbol)
			}
			ag.Detail = "closure checker reports undefined symbols the site index resolves: " + strings.Join(syms, ", ")
		default:
			diff := r.Diff()
			if len(diff) > 3 {
				diff = append(diff[:3], "...")
			}
			ag.Detail = "site index refuses symbols the closure checker accepts: " + strings.Join(diff, "; ")
		}
	}
	r.Agreement = ag
	return ag, nil
}
