package elfimg

import (
	"bytes"
	"debug/elf"
	"reflect"
	"testing"
	"testing/quick"
)

// sampleExecSpec is a representative MPI application binary: an x86-64
// executable linked against Open MPI with glibc version references.
func sampleExecSpec() Spec {
	return Spec{
		Class:   Class64,
		Machine: EMX8664,
		Type:    TypeExec,
		Interp:  "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{
			"libmpi.so.0", "libopen-rte.so.0", "libopen-pal.so.0",
			"libnsl.so.1", "libutil.so.1", "libm.so.6", "libpthread.so.0", "libc.so.6",
		},
		VerNeeds: []VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.2.5", "GLIBC_2.3.4"}},
			{File: "libpthread.so.0", Versions: []string{"GLIBC_2.2.5"}},
		},
		Comments: []string{"GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)"},
		TextSize: 2048,
	}
}

// sampleLibSpec is a representative shared library with version definitions.
func sampleLibSpec() Spec {
	return Spec{
		Class:   Class64,
		Machine: EMX8664,
		Type:    TypeDyn,
		Soname:  "libmpich.so.1",
		Needed:  []string{"libibverbs.so.1", "libibumad.so.3", "libpthread.so.0", "libc.so.6"},
		VerNeeds: []VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.2.5"}},
		},
		VerDefs:  []string{"libmpich.so.1", "MPICH2_1.2"},
		Comments: []string{"GCC: (GNU) 4.1.2"},
		TextSize: 4096,
	}
}

func TestBuildParseRoundTripExec(t *testing.T) {
	spec := sampleExecSpec()
	img, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasSections {
		t.Error("expected section-header view")
	}
	if f.Class != Class64 || f.Machine != EMX8664 || f.Type != TypeExec {
		t.Errorf("identity = %v %v %v", f.Class, f.Machine, f.Type)
	}
	if f.Interp != spec.Interp {
		t.Errorf("Interp = %q", f.Interp)
	}
	if !reflect.DeepEqual(f.Needed, spec.Needed) {
		t.Errorf("Needed = %v", f.Needed)
	}
	if !reflect.DeepEqual(f.VerNeeds, spec.VerNeeds) {
		t.Errorf("VerNeeds = %+v", f.VerNeeds)
	}
	if !reflect.DeepEqual(f.Comments, spec.Comments) {
		t.Errorf("Comments = %v", f.Comments)
	}
	if f.Format() != "elf64-x86-64" {
		t.Errorf("Format = %q", f.Format())
	}
}

func TestBuildParseRoundTripLibrary(t *testing.T) {
	spec := sampleLibSpec()
	img, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if f.Soname != "libmpich.so.1" {
		t.Errorf("Soname = %q", f.Soname)
	}
	if !reflect.DeepEqual(f.VerDefs, spec.VerDefs) {
		t.Errorf("VerDefs = %v", f.VerDefs)
	}
}

func TestBuildParseRoundTrip32Bit(t *testing.T) {
	spec := sampleExecSpec()
	spec.Class = Class32
	spec.Machine = EM386
	spec.Interp = "/lib/ld-linux.so.2"
	img, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if f.Class != Class32 || f.Machine != EM386 {
		t.Errorf("identity = %v %v", f.Class, f.Machine)
	}
	if f.Class.Bits() != 32 {
		t.Errorf("Bits = %d", f.Class.Bits())
	}
	if !reflect.DeepEqual(f.Needed, spec.Needed) {
		t.Errorf("Needed = %v", f.Needed)
	}
	if !reflect.DeepEqual(f.VerNeeds, spec.VerNeeds) {
		t.Errorf("VerNeeds = %+v", f.VerNeeds)
	}
	if f.Format() != "elf32-i386" {
		t.Errorf("Format = %q", f.Format())
	}
}

// TestDebugElfOracle validates the builder output against the standard
// library's independent ELF implementation.
func TestDebugElfOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"exec64", sampleExecSpec()},
		{"lib64", sampleLibSpec()},
		{"exec32", func() Spec {
			s := sampleExecSpec()
			s.Class = Class32
			s.Machine = EM386
			return s
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := MustBuild(tc.spec)
			ef, err := elf.NewFile(bytes.NewReader(img))
			if err != nil {
				t.Fatalf("debug/elf rejected image: %v", err)
			}
			defer ef.Close()
			libs, err := ef.ImportedLibraries()
			if err != nil {
				t.Fatalf("ImportedLibraries: %v", err)
			}
			if !reflect.DeepEqual(libs, tc.spec.Needed) {
				t.Errorf("debug/elf NEEDED = %v, want %v", libs, tc.spec.Needed)
			}
			wantMachine := elf.EM_X86_64
			if tc.spec.Class == Class32 {
				wantMachine = elf.EM_386
			}
			if ef.Machine != wantMachine {
				t.Errorf("debug/elf machine = %v", ef.Machine)
			}
			if tc.spec.Soname != "" {
				sonames, err := ef.DynString(elf.DT_SONAME)
				if err != nil || len(sonames) != 1 || sonames[0] != tc.spec.Soname {
					t.Errorf("debug/elf soname = %v (err %v)", sonames, err)
				}
			}
			if sec := ef.Section(".comment"); sec == nil && len(tc.spec.Comments) > 0 {
				t.Error("debug/elf cannot find .comment")
			}
		})
	}
}

// TestSegmentOnlyFallback strips the section-header view and verifies the
// parser recovers the dynamic metadata from program headers alone.
func TestSegmentOnlyFallback(t *testing.T) {
	spec := sampleLibSpec()
	img := MustBuild(spec)
	// Zero e_shoff/e_shnum/e_shstrndx in the ELF64 header.
	for _, off := range []int{40, 41, 42, 43, 44, 45, 46, 47, 60, 61, 62, 63} {
		img[off] = 0
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if f.HasSections {
		t.Error("expected program-header fallback")
	}
	if f.Soname != spec.Soname {
		t.Errorf("Soname = %q", f.Soname)
	}
	if !reflect.DeepEqual(f.Needed, spec.Needed) {
		t.Errorf("Needed = %v", f.Needed)
	}
	if !reflect.DeepEqual(f.VerNeeds, spec.VerNeeds) {
		t.Errorf("VerNeeds = %+v", f.VerNeeds)
	}
	if !reflect.DeepEqual(f.VerDefs, spec.VerDefs) {
		t.Errorf("VerDefs = %v", f.VerDefs)
	}
	// Comments live in an unmapped section and must be absent here.
	if len(f.Comments) != 0 {
		t.Errorf("Comments should be unavailable in segment view, got %v", f.Comments)
	}
}

func TestRPathRoundTrip(t *testing.T) {
	spec := sampleExecSpec()
	spec.RPath = "/opt/openmpi-1.4.3-intel/lib"
	img := MustBuild(spec)
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if f.RPath != spec.RPath {
		t.Errorf("RPath = %q", f.RPath)
	}
}

func TestVersionHelpers(t *testing.T) {
	img := MustBuild(sampleExecSpec())
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	refs := f.VersionRefNames()
	if len(refs) != 3 {
		t.Errorf("VersionRefNames = %v", refs)
	}
	if libc := f.VerNeeds[0]; libc.File != "libc.so.6" || len(libc.Versions) != 2 || libc.Versions[1] != "GLIBC_2.3.4" {
		t.Errorf("VerNeeds[0] = %v", libc)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{Class: 9, Machine: EMX8664, Type: TypeExec}); err == nil {
		t.Error("invalid class accepted")
	}
	if _, err := Build(Spec{Class: Class64, Machine: EMX8664, Type: 7}); err == nil {
		t.Error("invalid type accepted")
	}
	if _, err := Build(Spec{Class: Class64, Machine: EMX8664, Type: TypeExec, Soname: "libx.so.1"}); err == nil {
		t.Error("soname on executable accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(nil); err != ErrNotELF {
		t.Errorf("nil: %v", err)
	}
	if _, err := Parse(make([]byte, 100)); err != ErrNotELF {
		t.Errorf("zeros: %v", err)
	}
	junk := append([]byte{0x7f, 'E', 'L', 'F', 5}, make([]byte, 100)...)
	if _, err := Parse(junk); err == nil {
		t.Error("bad class accepted")
	}
	be := append([]byte{0x7f, 'E', 'L', 'F', 2, 2}, make([]byte, 100)...)
	if _, err := Parse(be); err == nil {
		t.Error("big-endian accepted")
	}
}

func TestParseTruncated(t *testing.T) {
	img := MustBuild(sampleExecSpec())
	// Any truncation must produce an error or a valid partial parse — never
	// a panic.
	for _, n := range []int{52, 64, 100, 200, len(img) / 2, len(img) - 1} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Parse panicked on %d-byte prefix: %v", n, r)
				}
			}()
			_, _ = Parse(img[:n])
		}()
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	MustBuild(Spec{})
}

func TestDeterministicBuild(t *testing.T) {
	a := MustBuild(sampleExecSpec())
	b := MustBuild(sampleExecSpec())
	if !bytes.Equal(a, b) {
		t.Error("Build is not deterministic")
	}
}

func TestTextPayloadAffectsSize(t *testing.T) {
	small := sampleExecSpec()
	small.TextSize = 0
	large := sampleExecSpec()
	large.TextSize = 1 << 20
	a, b := MustBuild(small), MustBuild(large)
	if len(b)-len(a) < 1<<20 {
		t.Errorf("text payload not reflected in size: %d vs %d", len(a), len(b))
	}
}

// Property: NEEDED entries survive a build/parse round trip for arbitrary
// well-formed library names.
func TestNeededRoundTripQuick(t *testing.T) {
	f := func(stems []string) bool {
		if len(stems) > 20 {
			stems = stems[:20]
		}
		var needed []string
		for i, s := range stems {
			// Sanitize to a plausible soname; the dynamic string table can
			// hold arbitrary bytes but sonames never contain NUL.
			clean := make([]rune, 0, len(s))
			for _, r := range s {
				if r > 0 && r != '/' && r < 128 {
					clean = append(clean, r)
				}
			}
			if len(clean) == 0 {
				clean = []rune{'x'}
			}
			needed = append(needed, "lib"+string(clean)+".so."+string(rune('0'+i%10)))
		}
		spec := Spec{Class: Class64, Machine: EMX8664, Type: TypeDyn, Soname: "libq.so.1", Needed: needed}
		img, err := Build(spec)
		if err != nil {
			return false
		}
		parsed, err := Parse(img)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(parsed.Needed, needed) ||
			(len(needed) == 0 && len(parsed.Needed) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestElfHashMatchesKnownValues(t *testing.T) {
	// The empty string hashes to 0 by definition; the GLIBC value pins the
	// implementation against accidental change.
	cases := map[string]uint32{
		"":            0,
		"GLIBC_2.2.5": 0x09691a75,
	}
	for in, want := range cases {
		if got := elfHash(in); got != want {
			t.Errorf("elfHash(%q) = %#x, want %#x", in, got, want)
		}
	}
}
