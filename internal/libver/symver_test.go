package libver

import (
	"reflect"
	"testing"
)

func TestParseSymbolVersion(t *testing.T) {
	sv, err := ParseSymbolVersion("GLIBC_2.12")
	if err != nil {
		t.Fatal(err)
	}
	if sv.Namespace != "GLIBC" || !sv.Version.Equal(V(2, 12)) {
		t.Errorf("got %+v", sv)
	}
	if !sv.IsGlibc() {
		t.Error("GLIBC_2.12 should be glibc")
	}
	if sv.String() != "GLIBC_2.12" {
		t.Errorf("String = %q", sv.String())
	}

	gcc, err := ParseSymbolVersion("GCC_3.0")
	if err != nil {
		t.Fatal(err)
	}
	if gcc.IsGlibc() {
		t.Error("GCC_3.0 should not be glibc")
	}

	for _, bad := range []string{"", "GLIBC", "_2.3", "GLIBC_", "GLIBC_x.y"} {
		if _, err := ParseSymbolVersion(bad); err == nil {
			t.Errorf("ParseSymbolVersion(%q) should fail", bad)
		}
	}
}

func TestHighestGlibc(t *testing.T) {
	names := []string{"GLIBC_2.2.5", "GLIBC_2.3.4", "GCC_3.0", "GLIBC_2.12", "GLIBCXX_3.4", "junk"}
	got := HighestGlibc(names)
	if !got.Equal(V(2, 12)) {
		t.Errorf("HighestGlibc = %v, want 2.12", got)
	}
	if !HighestGlibc(nil).IsZero() {
		t.Error("HighestGlibc(nil) should be zero")
	}
	if !HighestGlibc([]string{"GCC_3.0"}).IsZero() {
		t.Error("HighestGlibc without GLIBC names should be zero")
	}
}

func TestGlibcSymbolVersions(t *testing.T) {
	vs := GlibcSymbolVersions(V(2, 3, 4))
	if len(vs) == 0 {
		t.Fatal("no versions for glibc 2.3.4")
	}
	last := vs[len(vs)-1]
	if last != "GLIBC_2.3.4" {
		t.Errorf("last version = %q, want GLIBC_2.3.4", last)
	}
	for _, s := range vs {
		sv, err := ParseSymbolVersion(s)
		if err != nil {
			t.Fatalf("ladder emitted malformed version %q", s)
		}
		if sv.Version.Compare(V(2, 3, 4)) > 0 {
			t.Errorf("ladder version %s exceeds release 2.3.4", s)
		}
	}
	// A newer release includes strictly more definitions.
	newer := GlibcSymbolVersions(V(2, 12))
	if len(newer) <= len(vs) {
		t.Errorf("glibc 2.12 ladder (%d) should be longer than 2.3.4 ladder (%d)", len(newer), len(vs))
	}
	// The highest definition of release R is exactly R when R is on the ladder.
	if newer[len(newer)-1] != "GLIBC_2.12" {
		t.Errorf("2.12 ladder ends with %q", newer[len(newer)-1])
	}
}

func TestGlibcLadderConsistentWithHighestGlibc(t *testing.T) {
	// Property: for any release on the ladder, HighestGlibc over its own
	// definitions returns the release itself.
	for _, rel := range []Version{V(2, 3, 4), V(2, 5), V(2, 11, 1), V(2, 12)} {
		defs := GlibcSymbolVersions(rel)
		got := HighestGlibc(defs)
		// 2.11.1 is not a ladder entry; expect the highest entry <= release.
		if got.Compare(rel) > 0 {
			t.Errorf("HighestGlibc(%v defs) = %v exceeds release", rel, got)
		}
		if got.IsZero() {
			t.Errorf("HighestGlibc(%v defs) is zero", rel)
		}
	}
}

// TestGlibcSymbolVersionsFreshCopy: the ladder is formatted once, but each
// call still returns its own slice, because callers slice the result and
// keep it in library specs.
func TestGlibcSymbolVersionsFreshCopy(t *testing.T) {
	for _, rel := range []Version{nil, V(1, 9), V(2, 0), V(2, 1, 2), V(2, 3, 4), V(2, 5), V(2, 11, 1), V(2, 17), V(3, 0)} {
		var want []string
		for _, v := range glibcLadder {
			if v.Compare(rel) <= 0 {
				want = append(want, "GLIBC_"+v.String())
			}
		}
		got := GlibcSymbolVersions(rel)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GlibcSymbolVersions(%v) = %v, want %v", rel, got, want)
		}
		if len(got) == 0 {
			continue
		}
		got[0] = "edited"
		_ = append(got[:1], "appended")
		if again := GlibcSymbolVersions(rel); !reflect.DeepEqual(again, want) {
			t.Errorf("after editing one result, GlibcSymbolVersions(%v) = %v", rel, again)
		}
	}
}
