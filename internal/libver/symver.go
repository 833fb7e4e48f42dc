package libver

import (
	"fmt"
	"slices"
	"strings"
)

// SymbolVersion is an ELF symbol-version name such as "GLIBC_2.12" or
// "GCC_3.0". FEAM's C-library determinant is computed from the highest
// GLIBC_* version referenced by a binary.
type SymbolVersion struct {
	// Namespace is the prefix before the underscore: "GLIBC", "GCC",
	// "GLIBCXX", ...
	Namespace string
	// Version is the dotted version following the namespace.
	Version Version
}

// ParseSymbolVersion parses a NAMESPACE_x.y[.z] symbol-version name.
func ParseSymbolVersion(s string) (SymbolVersion, error) {
	i := strings.LastIndexByte(s, '_')
	if i <= 0 || i == len(s)-1 {
		return SymbolVersion{}, fmt.Errorf("libver: malformed symbol version %q", s)
	}
	v, err := ParseVersion(s[i+1:])
	if err != nil {
		return SymbolVersion{}, fmt.Errorf("libver: malformed symbol version %q: %v", s, err)
	}
	return SymbolVersion{Namespace: s[:i], Version: v}, nil
}

// String renders the canonical NAMESPACE_x.y form.
func (sv SymbolVersion) String() string {
	return sv.Namespace + "_" + sv.Version.String()
}

// IsGlibc reports whether the version belongs to the GLIBC namespace.
func (sv SymbolVersion) IsGlibc() bool { return sv.Namespace == "GLIBC" }

// HighestGlibc scans a list of symbol-version names and returns the highest
// GLIBC_* version among them, or the zero Version when none is present.
// Malformed names are skipped: the BDC must tolerate exotic version strings
// in real binaries.
func HighestGlibc(names []string) Version {
	var best Version
	for _, n := range names {
		sv, err := ParseSymbolVersion(n)
		if err != nil || !sv.IsGlibc() {
			continue
		}
		if best.IsZero() || sv.Version.Compare(best) > 0 {
			best = sv.Version
		}
	}
	return best
}

// glibcLadder is every GLIBC_* version tag a C library defines, oldest
// first, and glibcLadderNames their names, formatted once.
var (
	glibcLadder = []Version{
		{2, 0}, {2, 1}, {2, 1, 1}, {2, 1, 2}, {2, 1, 3},
		{2, 2}, {2, 2, 1}, {2, 2, 2}, {2, 2, 3}, {2, 2, 4}, {2, 2, 5}, {2, 2, 6},
		{2, 3}, {2, 3, 2}, {2, 3, 3}, {2, 3, 4},
		{2, 4}, {2, 5}, {2, 6}, {2, 7}, {2, 8}, {2, 9},
		{2, 10}, {2, 11}, {2, 12}, {2, 13}, {2, 14}, {2, 15}, {2, 16}, {2, 17},
	}
	glibcLadderNames = func() []string {
		names := make([]string, len(glibcLadder))
		for i, v := range glibcLadder {
			names[i] = SymbolVersion{Namespace: "GLIBC", Version: v}.String()
		}
		return names
	}()
)

// GlibcSymbolVersions returns the canonical ladder of GLIBC_* version
// definitions a C library of the given release provides, oldest first. Real
// glibc builds define every historical version tag up to their own release;
// the simulated C libraries installed at sites do the same so that version
// references resolve exactly as on a real system. Every call returns a
// fresh slice, which the caller may keep and modify.
func GlibcSymbolVersions(release Version) []string {
	n := 0
	for n < len(glibcLadder) && glibcLadder[n].Compare(release) <= 0 {
		n++
	}
	if n == 0 {
		return nil
	}
	return slices.Clone(glibcLadderNames[:n])
}
