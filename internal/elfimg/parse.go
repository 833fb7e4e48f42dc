package elfimg

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// File is the parsed view of an ELF image — the metadata FEAM's Binary
// Description Component extracts with objdump/readelf on a real system.
// It materializes every field up front; callers on the survey hot path
// that only need a few fields should use Parser/View instead, which
// aliases the input and does not allocate.
type File struct {
	Class   Class
	Machine Machine
	Type    FileType

	Interp   string
	Soname   string
	RPath    string
	RunPath  string
	Needed   []string
	VerNeeds []VerNeed
	VerDefs  []string
	Comments []string
	// Imports and Exports are the dynamic symbols with their version
	// bindings (populated only when the image carries a symbol table and
	// the section-header view is available).
	Imports []ImportedSymbol
	Exports []ExportedSymbol

	// HasSections reports whether the section-header view was available.
	// When false, the file was parsed from program headers only and the
	// .comment section (unmapped) could not be recovered — mirroring the
	// degraded-tool path described in the paper.
	HasSections bool
}

// Format returns an objdump-style format description such as
// "elf64-x86-64".
func (f *File) Format() string {
	bits := "64"
	if f.Class == Class32 {
		bits = "32"
	}
	return fmt.Sprintf("elf%s-%s", bits, f.Machine)
}

// VersionRefNames flattens all referenced symbol-version names.
func (f *File) VersionRefNames() []string {
	var out []string
	for _, vn := range f.VerNeeds {
		out = append(out, vn.Versions...)
	}
	return out
}

// ErrNotELF is returned for images without the ELF magic.
var ErrNotELF = fmt.Errorf("elfimg: not an ELF file")

// progHdr is one decoded program header.
type progHdr struct {
	pType  uint32
	offset uint64
	vaddr  uint64
	filesz uint64
}

// Parse decodes an ELF image into a fully materialized File. It is a
// compatibility shim over Parser/View: the View does the decoding, and
// this copies every field out so the result is independent of the input
// slice. It prefers the section-header view and falls back to the
// program-header (dynamic segment) view for images whose section table
// is missing or unusable.
func Parse(data []byte) (*File, error) {
	var p Parser
	v, err := p.Parse(data)
	if err != nil {
		return nil, err
	}
	return v.Materialize(), nil
}

// ParseMemo memoizes the parse of one image whose bytes never change: the
// first Parse runs the package-level Parse, and every later call, from any
// goroutine, returns the same *File or the same failure. The File is
// shared and must be treated as read-only. The zero value is ready to use.
type ParseMemo struct {
	p atomic.Pointer[parsed]
}

// parsed is one memoized Parse result: the file, or the parse failure.
type parsed struct {
	f   *File
	err error
}

// Parse returns the memoized parse of data, parsing it on the first call.
// Every call on one memo must pass the same bytes.
func (m *ParseMemo) Parse(data []byte) (*File, error) {
	r := m.p.Load()
	if r == nil {
		f, err := Parse(data)
		r = &parsed{f: f, err: err}
		if !m.p.CompareAndSwap(nil, r) {
			r = m.p.Load()
		}
	}
	return r.f, r.err
}

// Materialize copies the View out into a File that owns its memory.
func (v *View) Materialize() *File {
	f := &File{
		Class:       v.Class(),
		Machine:     v.Machine(),
		Type:        v.Type(),
		HasSections: v.HasSections(),
		Interp:      strings.TrimRight(string(v.Interp()), "\x00"),
	}
	if s := v.Soname(); v.soname >= 0 {
		f.Soname = string(s)
	}
	if s := v.RPath(); v.rpath >= 0 {
		f.RPath = string(s)
	}
	if s := v.RunPath(); v.runpath >= 0 {
		f.RunPath = string(s)
	}
	for i := 0; i < v.NeededCount(); i++ {
		f.Needed = append(f.Needed, string(v.NeededAt(i)))
	}
	if n := v.VerNeedCount(); n > 0 {
		f.VerNeeds = make([]VerNeed, n)
		for i := 0; i < n; i++ {
			f.VerNeeds[i].File = string(v.VerNeedFileAt(i))
		}
		v.VerNeeds(func(entry int, version []byte) bool {
			f.VerNeeds[entry].Versions = append(f.VerNeeds[entry].Versions, string(version))
			return true
		})
	}
	v.VerDefs(func(version []byte) bool {
		f.VerDefs = append(f.VerDefs, string(version))
		return true
	})
	v.Comments(func(comment []byte) bool {
		f.Comments = append(f.Comments, string(comment))
		return true
	})
	v.DynSymbols(func(sym SymbolRef) bool {
		if sym.Imported {
			f.Imports = append(f.Imports, ImportedSymbol{
				Name:    string(sym.Name),
				Version: string(sym.Version),
				Library: string(sym.Library),
			})
		} else {
			f.Exports = append(f.Exports, ExportedSymbol{
				Name:    string(sym.Name),
				Version: string(sym.Version),
			})
		}
		return true
	})
	return f
}
