package libver

import (
	"testing"
	"testing/quick"
)

func TestParseVersion(t *testing.T) {
	cases := []struct {
		in   string
		want Version
		ok   bool
	}{
		{"2.3.4", V(2, 3, 4), true},
		{"1", V(1), true},
		{"0.0.0", V(0, 0, 0), true},
		{"1.7rc1", V(1, 7), true},
		{"1.7a2", V(1, 7), true},
		{"1.4.3", V(1, 4, 3), true},
		{"", nil, false},
		{"abc", nil, false},
		{"1..2", nil, false},
		{"1.x.2", nil, false},
		{"-1.2", nil, false},
	}
	for _, c := range cases {
		got, err := ParseVersion(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseVersion(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got.Compare(c.want) != 0 {
			t.Errorf("ParseVersion(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMustParseVersionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseVersion did not panic on malformed input")
		}
	}()
	MustParseVersion("not-a-version")
}

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"2.3.4", "2.3.4", 0},
		{"2.3", "2.3.0", 0},
		{"2.3.4", "2.12", -1},
		{"2.12", "2.3.4", 1},
		{"2.5", "2.11.1", -1},
		{"1.4", "1.3", 1},
		{"3", "2.99.99", 1},
	}
	for _, c := range cases {
		a, b := MustParseVersion(c.a), MustParseVersion(c.b)
		if got := a.Compare(b); got != c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestVersionCompareZero(t *testing.T) {
	var zero Version
	if zero.Compare(V(0)) != 0 {
		t.Errorf("nil version should equal 0")
	}
	if zero.Compare(V(1)) != -1 {
		t.Errorf("nil version should compare below 1")
	}
	if !zero.IsZero() {
		t.Errorf("nil version should be zero")
	}
	if zero.String() != "none" {
		t.Errorf("zero version String() = %q, want none", zero.String())
	}
}

func TestVersionHelpers(t *testing.T) {
	v := V(2, 11, 1)
	if !v.AtLeast(V(2, 5)) {
		t.Error("2.11.1 should be at least 2.5")
	}
	if v.AtLeast(V(2, 12)) {
		t.Error("2.11.1 should not be at least 2.12")
	}
	if !v.Less(V(2, 12)) {
		t.Error("2.11.1 should be less than 2.12")
	}
	if !v.Equal(V(2, 11, 1, 0)) {
		t.Error("2.11.1 should equal 2.11.1.0")
	}
	if v.Major() != 2 {
		t.Errorf("Major = %d, want 2", v.Major())
	}
	if Version(nil).Major() != 0 {
		t.Error("zero version Major should be 0")
	}
	if got := Max(V(1, 3), V(1, 4)); !got.Equal(V(1, 4)) {
		t.Errorf("Max(1.3, 1.4) = %v", got)
	}
	if got := Max(V(2), V(1, 9)); !got.Equal(V(2)) {
		t.Errorf("Max(2, 1.9) = %v", got)
	}
}

func TestVersionClone(t *testing.T) {
	v := V(1, 2, 3)
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Error("Clone shares backing storage with original")
	}
	if Version(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestVersionRoundTripString(t *testing.T) {
	f := func(a, b, c uint8) bool {
		v := V(int(a), int(b), int(c))
		parsed, err := ParseVersion(v.String())
		return err == nil && parsed.Compare(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVersionCompareProperties(t *testing.T) {
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	anti := func(a1, a2, b1, b2 uint8) bool {
		a, b := V(int(a1), int(a2)), V(int(b1), int(b2))
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	// Transitivity over a small domain.
	tri := func(a1, b1, c1 uint8) bool {
		a, b, c := V(int(a1)), V(int(b1)), V(int(c1))
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}

func TestVersionString(t *testing.T) {
	long := make(Version, 20)
	for i := range long {
		long[i] = 1000 + i
	}
	cases := []struct {
		v    Version
		want string
	}{
		{nil, "none"},
		{Version{}, "none"},
		{V(0), "0"},
		{V(2, 5), "2.5"},
		{V(2, 3, 4), "2.3.4"},
		{V(2, 12, 0), "2.12.0"},
		{V(1, 7, 123456789), "1.7.123456789"},
		{V(-1, 2), "-1.2"},
		// Longer than the stack buffer: the result must still be whole.
		{long, "1000.1001.1002.1003.1004.1005.1006.1007.1008.1009.1010.1011.1012.1013.1014.1015.1016.1017.1018.1019"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", []int(c.v), got, c.want)
		}
	}
}

// TestVersionStringAllocs pins String at one allocation, the result
// string itself.
func TestVersionStringAllocs(t *testing.T) {
	v := V(2, 12, 1)
	var sink string
	if got := testing.AllocsPerRun(100, func() { sink = v.String() }); got > 1 {
		t.Errorf("Version.String allocs/op = %v, want <= 1", got)
	}
	if sink != "2.12.1" {
		t.Errorf("String = %q", sink)
	}
}
