package abicheck_test

import (
	"reflect"
	"sync"
	"testing"

	"feam/internal/abicheck"
	"feam/internal/elfimg"
	"feam/internal/ldso"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/vfs"
	"feam/internal/workload"
)

var (
	tbOnce sync.Once
	tbVal  *testbed.Testbed
	tbErr  error
)

func sharedTestbed(t *testing.T) *testbed.Testbed {
	t.Helper()
	tbOnce.Do(func() { tbVal, tbErr = testbed.Build() })
	if tbErr != nil {
		t.Fatal(tbErr)
	}
	return tbVal
}

// TestSiteIndexResolvesCompiledMPIBinary is the package's acceptance
// test: the whole-site index built from Roots() must resolve every
// dynamic symbol of a binary actually compiled at the site — libc and
// libm imports through the default lib dirs, MPI entry points through
// the installed stack's /opt/<pkg>/lib.
func TestSiteIndexResolvesCompiledMPIBinary(t *testing.T) {
	tb := sharedTestbed(t)
	site := tb.ByName["india"]
	rec := site.FindStack("openmpi-1.4-gnu")
	if rec == nil {
		t.Fatal("no openmpi-1.4-gnu stack at india")
	}
	art, err := toolchain.Compile(workload.Find("cg"), rec, site)
	if err != nil {
		t.Fatal(err)
	}

	ix := abicheck.BuildIndex(site, nil, 0)
	if ix.Libraries() == 0 || ix.Symbols() == 0 {
		t.Fatalf("empty site index: %d libraries, %d symbols", ix.Libraries(), ix.Symbols())
	}

	r, err := abicheck.Check(art.Bytes, "cg.binary", ix)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total == 0 {
		t.Fatal("compiled binary shows no dynamic imports")
	}
	if len(r.Symbols) != r.Total {
		t.Fatalf("got %d per-symbol verdicts for %d imports", len(r.Symbols), r.Total)
	}
	for _, sv := range r.Symbols {
		if sv.Verdict != abicheck.VerdictResolved {
			t.Errorf("%s@%s: %s (provider %q)", sv.Symbol, sv.Version, sv.Verdict, sv.Provider)
		} else if sv.Provider == "" {
			t.Errorf("%s resolved without a provider path", sv.Symbol)
		}
	}
	if !r.OK() || r.Resolved != r.Total {
		t.Fatalf("report not clean: %s", r.Summary())
	}
	if r.MPIImports == 0 || r.MPIResolved != r.MPIImports {
		t.Fatalf("MPI surface not satisfied: %d/%d", r.MPIResolved, r.MPIImports)
	}
	if d := r.Diff(); len(d) != 0 {
		t.Fatalf("clean report produced diff lines: %v", d)
	}
}

// latticeIndex hand-builds an index exposing every verdict class: a
// 64-bit libc exporting printf only at GLIBC_2.0, and a 32-bit library
// exporting a symbol nothing 64-bit provides.
func latticeIndex(t *testing.T) *abicheck.Index {
	t.Helper()
	b := abicheck.NewIndexBuilder("lattice", 7)
	b.AddObject("/lib64/libc-2.5.so", elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeDyn,
		Soname:  "libc.so.6",
		VerDefs: []string{"libc.so.6", "GLIBC_2.0"},
		Exports: []elfimg.ExportedSymbol{
			{Name: "printf", Version: "GLIBC_2.0"},
			{Name: "exit", Version: "GLIBC_2.0"},
		},
	}))
	b.AddObject("/lib/lib32only.so", elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class32, Machine: elfimg.EM386, Type: elfimg.TypeDyn,
		Soname:  "lib32only.so",
		Exports: []elfimg.ExportedSymbol{{Name: "only32_frob"}},
	}))
	// Non-ELF bystanders (linker scripts, text stubs) must be skipped, not
	// rejected.
	b.AddObject("/lib64/libfake.so", []byte("GROUP ( /lib64/libc-2.5.so )"))
	return b.Index()
}

// latticeBinary imports one symbol per verdict class.
func latticeBinary() []byte {
	return elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
		Interp: "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{"libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.0", "GLIBC_9.9"}},
		},
		Imports: []elfimg.ImportedSymbol{
			{Name: "printf", Version: "GLIBC_2.0", Library: "libc.so.6"},
			{Name: "exit", Version: "GLIBC_9.9", Library: "libc.so.6"},
			{Name: "nothing_exports_this"},
			{Name: "only32_frob"},
		},
	})
}

// TestVerdictLattice pins the resolver's classification: resolved,
// version-mismatch (name present, version absent, compatible provider
// exists), missing (no exporter at all), and class-conflict (only
// exporters of an incompatible class/machine).
func TestVerdictLattice(t *testing.T) {
	ix := latticeIndex(t)
	if ix.Libraries() != 2 {
		t.Fatalf("indexed %d libraries, want 2 (bystander must be skipped)", ix.Libraries())
	}
	r, err := abicheck.Check(latticeBinary(), "lattice.bin", ix)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]abicheck.Verdict{
		"printf":               abicheck.VerdictResolved,
		"exit":                 abicheck.VerdictVersionMismatch,
		"nothing_exports_this": abicheck.VerdictMissing,
		"only32_frob":          abicheck.VerdictClassConflict,
	}
	if r.Total != len(want) {
		t.Fatalf("Total = %d, want %d", r.Total, len(want))
	}
	for _, sv := range r.Symbols {
		if w, ok := want[sv.Symbol]; !ok {
			t.Errorf("unexpected symbol %q in report", sv.Symbol)
		} else if sv.Verdict != w {
			t.Errorf("%s = %s, want %s", sv.Symbol, sv.Verdict, w)
		}
	}
	if r.Resolved != 1 || r.Missing != 1 || r.Mismatch != 1 || r.Conflicts != 1 {
		t.Fatalf("counts wrong: %s", r.Summary())
	}
	if r.OK() {
		t.Fatal("report with failures claims OK")
	}
	if d := r.Diff(); len(d) != 3 {
		t.Fatalf("Diff lines = %d, want 3: %v", len(d), d)
	}
	// The version-mismatch and class-conflict verdicts name the nearest
	// provider so the trail shows what nearly bound.
	for _, sv := range r.Symbols {
		if sv.Verdict == abicheck.VerdictVersionMismatch && sv.Provider == "" {
			t.Errorf("version-mismatch for %s lacks nearest provider", sv.Symbol)
		}
	}
}

// TestProvides pins the ABI-standard surface primitive: Provides must be
// class-aware, and ProvidesAll must fail closed on the first gap.
func TestProvides(t *testing.T) {
	ix := latticeIndex(t)
	if !ix.Provides("printf", elfimg.Class64, elfimg.EMX8664) {
		t.Error("printf should be provided for 64-bit x86")
	}
	if ix.Provides("only32_frob", elfimg.Class64, elfimg.EMX8664) {
		t.Error("only32_frob must not satisfy a 64-bit consumer")
	}
	if !ix.Provides("only32_frob", elfimg.Class32, elfimg.EM386) {
		t.Error("only32_frob should be provided for 32-bit x86")
	}
	if ix.ProvidesAll([]string{"printf", "nothing_exports_this"}, elfimg.Class64, elfimg.EMX8664) {
		t.Error("ProvidesAll must fail when any name is missing")
	}
	if !ix.ProvidesAll([]string{"printf", "exit"}, elfimg.Class64, elfimg.EMX8664) {
		t.Error("ProvidesAll over provided names should pass")
	}
}

// TestSnapshotRoundTrip: the persistence form must rebuild an index with
// identical resolution behavior, and serialize deterministically.
func TestSnapshotRoundTrip(t *testing.T) {
	ix := latticeIndex(t)
	snap := ix.Snapshot()
	back := abicheck.FromSnapshot(snap)
	if back.Site() != ix.Site() || back.Stamp() != ix.Stamp() {
		t.Fatalf("identity lost: %s/%d vs %s/%d", back.Site(), back.Stamp(), ix.Site(), ix.Stamp())
	}
	if back.Libraries() != ix.Libraries() || back.Symbols() != ix.Symbols() {
		t.Fatalf("shape lost: %d/%d vs %d/%d",
			back.Libraries(), back.Symbols(), ix.Libraries(), ix.Symbols())
	}
	r1, err := abicheck.Check(latticeBinary(), "bin", ix)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := abicheck.Check(latticeBinary(), "bin", back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Symbols, r2.Symbols) {
		t.Fatalf("round-trip changed verdicts:\n%+v\nvs\n%+v", r1.Symbols, r2.Symbols)
	}
	if !reflect.DeepEqual(snap, back.Snapshot()) {
		t.Fatal("re-snapshot of the rebuilt index differs")
	}
}

// agreementWorld stages a two-library filesystem where "pow" lives only
// in libm.so.6 — which the probe binary does NOT declare in DT_NEEDED.
// The whole-site index resolves pow anyway; the soname-closure checker
// cannot, because eager binding only sees libraries reachable through
// the NEEDED graph. That structural gap is the seeded cross-tool
// disagreement the agreement mode exists to measure.
func agreementWorld(t *testing.T) (*vfs.FS, *abicheck.Index) {
	t.Helper()
	fs := vfs.New()
	if err := fs.MkdirAll("/lib64"); err != nil {
		t.Fatal(err)
	}
	libc := elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeDyn,
		Soname:  "libc.so.6",
		VerDefs: []string{"libc.so.6", "GLIBC_2.0"},
		Exports: []elfimg.ExportedSymbol{{Name: "printf", Version: "GLIBC_2.0"}},
	})
	libm := elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeDyn,
		Soname:  "libm.so.6",
		VerDefs: []string{"libm.so.6", "GLIBC_2.0"},
		Exports: []elfimg.ExportedSymbol{{Name: "pow"}},
	})
	for p, data := range map[string][]byte{
		"/lib64/libc.so.6": libc,
		"/lib64/libm.so.6": libm,
	} {
		if err := fs.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
	}
	b := abicheck.NewIndexBuilder("agreement", 1)
	b.AddObject("/lib64/libc.so.6", libc)
	b.AddObject("/lib64/libm.so.6", libm)
	return fs, b.Index()
}

func agreementBinary(imports ...elfimg.ImportedSymbol) []byte {
	return elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
		Interp: "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{"libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.0"}},
		},
		Imports: imports,
	})
}

// TestAgreementSeededDisagreement is the acceptance test for the
// cross-tool agreement mode: at least one structurally-seeded
// disagreement, plus the agreeing control case.
func TestAgreementSeededDisagreement(t *testing.T) {
	fs, ix := agreementWorld(t)
	opts := ldso.Options{FS: fs, DefaultDirs: []string{"/lib64"}}

	// pow resolves in the site index (libm is on the site) but not in the
	// NEEDED closure (the binary never links libm).
	bin := agreementBinary(
		elfimg.ImportedSymbol{Name: "printf", Version: "GLIBC_2.0", Library: "libc.so.6"},
		elfimg.ImportedSymbol{Name: "pow"},
	)
	r, err := abicheck.Check(bin, "disagrees", ix)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("index should resolve everything: %s", r.Summary())
	}
	ag, err := abicheck.Compare(r, bin, "disagrees", opts)
	if err != nil {
		t.Fatal(err)
	}
	if ag.Agree || !ag.IndexOK || ag.ClosureOK {
		t.Fatalf("want seeded disagreement (index ok, closure not): %+v", ag)
	}
	if ag.Detail == "" {
		t.Fatal("disagreement carries no detail")
	}
	if r.Agreement != ag {
		t.Fatal("Compare did not attach the agreement to the report")
	}

	// Control: drop the out-of-closure import and the tools agree.
	ctrl := agreementBinary(
		elfimg.ImportedSymbol{Name: "printf", Version: "GLIBC_2.0", Library: "libc.so.6"},
	)
	rc, err := abicheck.Check(ctrl, "agrees", ix)
	if err != nil {
		t.Fatal(err)
	}
	agc, err := abicheck.Compare(rc, ctrl, "agrees", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !agc.Agree || !agc.IndexOK || !agc.ClosureOK {
		t.Fatalf("control case should agree: %+v", agc)
	}
}

// TestABIResolveAllocs pins the cached hot path: resolving a pre-parsed
// view against a warm index performs zero heap allocations. CI's
// bench-smoke job fails if this ever becomes nonzero.
func TestABIResolveAllocs(t *testing.T) {
	ix := latticeIndex(t)
	bin := latticeBinary()
	var p elfimg.Parser
	v, err := p.Parse(bin)
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	resolve := func() {
		ix.Resolve(v, func(name, version []byte, verdict abicheck.Verdict, provider string) bool {
			sink += len(name) + len(version) + int(verdict) + len(provider)
			return true
		})
	}
	allocs := testing.AllocsPerRun(200, resolve)
	if allocs != 0 {
		t.Fatalf("cached resolve path allocated %.1f times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("resolver observed no symbols")
	}
}
