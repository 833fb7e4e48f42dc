package sitemodel

import (
	"fmt"

	"feam/internal/elfimg"
	"feam/internal/vfs"
)

// StripExport rewrites the shared library at path with every export named
// symbol removed. The soname, dependencies, and version-definition tables
// survive unchanged, so library-level checks (soname presence, verneed
// satisfaction) still pass while symbol-level resolution sees the smaller
// surface — the failure mode a partial or vendor-trimmed library build
// leaves behind. The rewrite bumps the filesystem generation like any
// library mutation, invalidating cached surveys and symbol indexes.
func (s *Site) StripExport(path, symbol string) error {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sitemodel: stripping %s from %s: %w", symbol, path, err)
	}
	f, err := elfimg.Parse(data)
	if err != nil {
		return fmt.Errorf("sitemodel: stripping %s from %s: %w", symbol, path, err)
	}
	kept := make([]elfimg.ExportedSymbol, 0, len(f.Exports))
	for _, ex := range f.Exports {
		if ex.Name != symbol {
			kept = append(kept, ex)
		}
	}
	if len(kept) == len(f.Exports) {
		return fmt.Errorf("sitemodel: %s exports no symbol %q", path, symbol)
	}
	img, err := elfimg.Build(elfimg.Spec{
		Class: f.Class, Machine: f.Machine, Type: f.Type,
		Interp: f.Interp, Soname: f.Soname, Needed: f.Needed,
		RPath: f.RPath, RunPath: f.RunPath,
		VerNeeds: f.VerNeeds, VerDefs: f.VerDefs,
		Comments: f.Comments, Imports: f.Imports, Exports: kept,
	})
	if err != nil {
		return fmt.Errorf("sitemodel: rebuilding %s without %s: %w", path, symbol, err)
	}
	return s.fs.WriteBlob(path, vfs.NewBlob(img))
}
