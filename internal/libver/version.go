// Package libver implements the version and naming conventions FEAM relies
// on: dotted release versions ("2.3.4"), shared-object naming
// (lib<name>.so.<major>.<minor>.<release>), the soname compatibility rule
// (equal stem and major version implies a compatible API), and glibc symbol
// versions ("GLIBC_2.12") as they appear in ELF version references.
package libver

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is a dotted numeric release version such as 2.3.4. The zero value
// (nil) is "no version" and compares below every real version.
type Version []int

// ParseVersion parses a dotted numeric version string. Each component must
// be a non-negative decimal integer. Trailing non-numeric suffixes on the
// final component (as in "1.7rc1" or "1.7a2") are tolerated and ignored,
// matching the loose version strings found in MPI release names.
func ParseVersion(s string) (Version, error) {
	if s == "" {
		return nil, fmt.Errorf("libver: empty version string")
	}
	parts := strings.Split(s, ".")
	v := make(Version, 0, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			// Tolerate a suffix on the last component: "7rc1" -> 7.
			if i == len(parts)-1 {
				digits := leadingDigits(p)
				if digits == "" {
					return nil, fmt.Errorf("libver: bad version component %q in %q", p, s)
				}
				n, err = strconv.Atoi(digits)
				if err != nil {
					return nil, fmt.Errorf("libver: bad version component %q in %q", p, s)
				}
			} else {
				return nil, fmt.Errorf("libver: bad version component %q in %q", p, s)
			}
		}
		if n < 0 {
			return nil, fmt.Errorf("libver: negative version component in %q", s)
		}
		v = append(v, n)
	}
	return v, nil
}

// MustParseVersion is ParseVersion for statically known inputs; it panics on
// malformed strings.
func MustParseVersion(s string) Version {
	v, err := ParseVersion(s)
	if err != nil {
		panic(err)
	}
	return v
}

func leadingDigits(s string) string {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return s[:i]
}

// V builds a Version from integer components.
func V(parts ...int) Version { return Version(parts) }

// String renders the dotted form. A nil Version renders as "none". The
// digits are formatted into a stack buffer, so the result string is the
// only allocation: the C-library determinant formats two versions per
// evaluated site.
func (v Version) String() string {
	if len(v) == 0 {
		return "none"
	}
	var buf [32]byte
	b := buf[:0]
	for i, n := range v {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}

// IsZero reports whether the version is absent.
func (v Version) IsZero() bool { return len(v) == 0 }

// Compare orders two versions component-wise; missing components compare as
// zero, so 2.3 == 2.3.0. It returns -1, 0, or +1.
func (v Version) Compare(o Version) int {
	n := len(v)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		a, b := 0, 0
		if i < len(v) {
			a = v[i]
		}
		if i < len(o) {
			b = o[i]
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
	return 0
}

// AtLeast reports v >= o.
func (v Version) AtLeast(o Version) bool { return v.Compare(o) >= 0 }

// Less reports v < o.
func (v Version) Less(o Version) bool { return v.Compare(o) < 0 }

// Equal reports v == o under Compare semantics (2.3 equals 2.3.0).
func (v Version) Equal(o Version) bool { return v.Compare(o) == 0 }

// Major returns the first component, or 0 for the zero version.
func (v Version) Major() int {
	if len(v) == 0 {
		return 0
	}
	return v[0]
}

// Clone returns an independent copy.
func (v Version) Clone() Version {
	if v == nil {
		return nil
	}
	c := make(Version, len(v))
	copy(c, v)
	return c
}

// Max returns the larger of two versions.
func Max(a, b Version) Version {
	if a.Compare(b) >= 0 {
		return a
	}
	return b
}
