package toolchain

import (
	"testing"

	"feam/internal/libver"
)

// refParseBannerVersion is parseBannerVersion as it was before the banner
// was split with strings.FieldsFunc and words that cannot start a version
// were skipped: the reference the table test and FuzzBannerVersion compare
// against.
func refParseBannerVersion(banner string) (string, bool) {
	for _, f := range refSplitFields(banner) {
		v, err := libver.ParseVersion(f)
		if err != nil {
			continue
		}
		plausible := true
		for _, n := range v {
			if n > 99 {
				plausible = false
			}
		}
		if plausible {
			return v.String(), true
		}
	}
	return "", false
}

func refSplitFields(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' || r == '\n' || r == '\t' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

var bannerCases = []string{
	"",
	"gcc (GCC) 4.1.2 20080704 (Red Hat 4.1.2-48)",
	"icc (ICC) 12 20100414",
	"pgcc 11.5-0 64-bit target on x86-64 Linux -tp nehalem",
	"no version here",
	"  \t\n  ",
	"gcc\t(GCC)\n4.4.5\n",
	"tool +4.1 release",
	"tool -0.3 release",
	"tool -1.2 4.4",
	"tool 100.1 2.0",
	"tool 4.x 5.1rc2",
	"tool .5 5.",
	"tool 1..2 3.4",
	"tool \xff4.1 4.1\xff",
	"tool 4.1 5.2",
	"tool\r4.1 6.0\r",
	"v4.1 ver 7",
	"99999999999999999999.1 8.0",
}

func TestBannerVersionMatchesReference(t *testing.T) {
	banners := append([]string(nil), bannerCases...)
	for _, c := range []Compiler{
		{Family: GNU, Version: "3.4.6"}, {Family: GNU, Version: "4.4.5"},
		{Family: Intel, Version: "11.1"}, {Family: PGI, Version: "11.5"},
	} {
		banners = append(banners, c.VersionBanner())
	}
	for _, b := range banners {
		got, ok := parseBannerVersion(b)
		want, wantOK := refParseBannerVersion(b)
		if got != want || ok != wantOK {
			t.Errorf("parseBannerVersion(%q) = %q, %v; reference %q, %v", b, got, ok, want, wantOK)
		}
	}
}

func FuzzBannerVersion(f *testing.F) {
	for _, b := range bannerCases {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, banner string) {
		got, ok := parseBannerVersion(banner)
		want, wantOK := refParseBannerVersion(banner)
		if got != want || ok != wantOK {
			t.Errorf("parseBannerVersion(%q) = %q, %v; reference %q, %v", banner, got, ok, want, wantOK)
		}
	})
}
