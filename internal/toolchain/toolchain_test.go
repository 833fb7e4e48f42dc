package toolchain

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/ldso"
	"feam/internal/libver"
	"feam/internal/mpistack"
	"feam/internal/sitemodel"
	"feam/internal/workload"
)

func TestFamilyKeys(t *testing.T) {
	for f, key := range map[Family]string{GNU: "gnu", Intel: "intel", PGI: "pgi"} {
		if f.Key() != key {
			t.Errorf("%v.Key() = %q", f, f.Key())
		}
		got, ok := FamilyFromKey(key)
		if !ok || got != f {
			t.Errorf("FamilyFromKey(%q) = %v, %v", key, got, ok)
		}
	}
	if _, ok := FamilyFromKey("cray"); ok {
		t.Error("FamilyFromKey accepted junk")
	}
}

func TestGfortranSonameByRelease(t *testing.T) {
	cases := map[string]string{
		"3.4.6": "libg2c.so.0",
		"4.1.2": "libgfortran.so.1",
		"4.4.5": "libgfortran.so.3",
	}
	for v, want := range cases {
		c := Compiler{Family: GNU, Version: v}
		if got := c.gfortranSoname(); got != want {
			t.Errorf("GCC %s fortran runtime = %q, want %q", v, got, want)
		}
	}
}

func TestHasFortran90(t *testing.T) {
	if (Compiler{Family: GNU, Version: "3.4.6"}).HasFortran90() {
		t.Error("GCC 3.4 should not have Fortran 90")
	}
	if !(Compiler{Family: GNU, Version: "4.1.2"}).HasFortran90() {
		t.Error("GCC 4.1 should have Fortran 90")
	}
	if !(Compiler{Family: Intel, Version: "10.1"}).HasFortran90() {
		t.Error("Intel should have Fortran 90")
	}
}

func TestRuntimeDeps(t *testing.T) {
	// GNU Fortran links only the Fortran runtime.
	deps := (Compiler{Family: GNU, Version: "4.1.2"}).RuntimeDeps(workload.Fortran77)
	if len(deps) != 1 || deps[0].Soname != "libgfortran.so.1" || deps[0].Epoch != 0 {
		t.Errorf("GNU F77 deps = %+v", deps)
	}
	// Intel links its math runtimes with an epoch requirement.
	deps = (Compiler{Family: Intel, Version: "11.1"}).RuntimeDeps(workload.C)
	names := depNames(deps)
	if !strings.Contains(names, "libimf.so") || !strings.Contains(names, "libsvml.so") {
		t.Errorf("Intel C deps = %v", names)
	}
	for _, d := range deps {
		if d.Epoch != 1 {
			t.Errorf("Intel 11.1 epoch = %d", d.Epoch)
		}
	}
	// Intel Fortran adds libifcore.
	deps = (Compiler{Family: Intel, Version: "12"}).RuntimeDeps(workload.Fortran90)
	if !strings.Contains(depNames(deps), "libifcore.so.5") {
		t.Errorf("Intel F90 deps = %v", depNames(deps))
	}
	// C++ references the GLIBCXX ladder top of its GCC release.
	deps = (Compiler{Family: GNU, Version: "4.4.5"}).RuntimeDeps(workload.CPlusPlus)
	var cxx *RuntimeDep
	for i := range deps {
		if deps[i].Soname == "libstdc++.so.6" {
			cxx = &deps[i]
		}
	}
	if cxx == nil || len(cxx.Versions) != 1 || cxx.Versions[0] != "GLIBCXX_3.4.13" {
		t.Errorf("GCC 4.4 C++ dep = %+v", cxx)
	}
	// Intel C++ targets the baseline ABI.
	deps = (Compiler{Family: Intel, Version: "12"}).RuntimeDeps(workload.CPlusPlus)
	for _, d := range deps {
		if d.Soname == "libstdc++.so.6" && (len(d.Versions) != 1 || d.Versions[0] != "GLIBCXX_3.4") {
			t.Errorf("Intel C++ dep = %+v", d)
		}
	}
	// PGI Fortran.
	deps = (Compiler{Family: PGI, Version: "11.5"}).RuntimeDeps(workload.Fortran77)
	if !strings.Contains(depNames(deps), "libpgf90.so") {
		t.Errorf("PGI F77 deps = %v", depNames(deps))
	}
}

func depNames(deps []RuntimeDep) string {
	var names []string
	for _, d := range deps {
		names = append(names, d.Soname)
	}
	return strings.Join(names, ",")
}

func TestFeatureLevel(t *testing.T) {
	if (Compiler{Family: GNU, Version: "4.4.5"}).FeatureLevel(3) != 1 {
		t.Error("GNU should stay conservative")
	}
	if (Compiler{Family: Intel, Version: "12"}).FeatureLevel(3) != 3 {
		t.Error("Intel should target the host")
	}
	if (Compiler{Family: PGI, Version: "11.5"}).FeatureLevel(3) != 2 {
		t.Error("PGI should cap at level 2")
	}
	if (Compiler{Family: PGI, Version: "11.5"}).FeatureLevel(1) != 1 {
		t.Error("PGI cannot exceed the build host")
	}
}

func newSite(name string, glibc libver.Version, featureLevel int) *sitemodel.Site {
	s := sitemodel.New(name,
		sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "Xeon", FeatureLevel: featureLevel},
		sitemodel.OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18", ReleaseFile: "/etc/redhat-release"},
		glibc)
	if err := s.InstallCLibrary(); err != nil {
		panic(err)
	}
	return s
}

func TestCompilerInstallAndFind(t *testing.T) {
	site := newSite("fir", libver.V(2, 5), 1)
	gnu := &CompilerInstall{Compiler: Compiler{Family: GNU, Version: "4.1.2"}}
	if err := gnu.Materialize(site); err != nil {
		t.Fatal(err)
	}
	intel := &CompilerInstall{Compiler: Compiler{Family: Intel, Version: "12"}}
	if err := intel.Materialize(site); err != nil {
		t.Fatal(err)
	}
	// Drivers discoverable.
	c, ok := FindCompiler(site, GNU)
	if !ok || c.Version != "4.1.2" {
		t.Errorf("FindCompiler(GNU) = %+v, %v", c, ok)
	}
	if _, ok := FindCompiler(site, PGI); ok {
		t.Error("found a PGI compiler that is not installed")
	}
	// GNU runtimes land in the system lib dir.
	if !site.FS().Exists("/lib64/libgfortran.so.1") {
		t.Error("libgfortran not installed")
	}
	if !site.FS().Exists("/lib64/libstdc++.so.6") {
		t.Error("libstdc++ not installed")
	}
	// Intel runtimes land under /opt and are on the loader path.
	if !site.FS().Exists("/opt/intel/12/lib/libimf.so") {
		t.Error("libimf not installed")
	}
	dirs := site.DefaultLibDirs()
	found := false
	for _, d := range dirs {
		if d == "/opt/intel/12/lib" {
			found = true
		}
	}
	if !found {
		t.Errorf("intel lib dir not in ld.so.conf dirs: %v", dirs)
	}
	// Intel runtime epoch recorded (one stable generation across releases).
	if got := site.LibraryABIEpoch("/opt/intel/12/lib/libimf.so"); got != 1 {
		t.Errorf("libimf epoch = %d", got)
	}
	// Intel FindCompiler sees versioned directory.
	ic, ok := FindCompiler(site, Intel)
	if !ok || ic.Version != "12" {
		t.Errorf("FindCompiler(Intel) = %+v, %v", ic, ok)
	}
}

func TestCanCompileRules(t *testing.T) {
	gcc34 := Compiler{Family: GNU, Version: "3.4.6"}
	if err := CanCompile(workload.Find("107.leslie3d"), gcc34); err == nil {
		t.Error("F90 code should not compile with GCC 3.4")
	}
	if err := CanCompile(workload.Find("bt"), gcc34); err != nil {
		t.Errorf("F77 code should compile with GCC 3.4: %v", err)
	}
	pgi := Compiler{Family: PGI, Version: "11.5"}
	if err := CanCompile(workload.Find("115.fds4"), pgi); err == nil {
		t.Error("fds4 should not compile with PGI")
	}
	if err := CanCompile(workload.Find("126.lammps"), pgi); err == nil {
		t.Error("lammps should not compile with PGI")
	}
	var ce *CompileError
	err := CanCompile(workload.Find("115.fds4"), pgi)
	if ce, _ = err.(*CompileError); ce == nil || !strings.Contains(ce.Error(), "115.fds4") {
		t.Errorf("error = %v", err)
	}
}

// buildStackSite creates a site with GNU 4.1.2 and an Open MPI 1.4 stack.
func buildStackSite(t *testing.T) (*sitemodel.Site, *sitemodel.StackRecord) {
	t.Helper()
	site := newSite("india", libver.V(2, 5), 2)
	gnu := &CompilerInstall{Compiler: Compiler{Family: GNU, Version: "4.1.2"}}
	if err := gnu.Materialize(site); err != nil {
		t.Fatal(err)
	}
	inst := &mpistack.Install{
		Release:        mpistack.Release{Impl: mpistack.OpenMPI, Version: "1.4"},
		CompilerFamily: "gnu", CompilerVersion: "4.1.2",
		Interconnect: "ethernet", WithFortran: true,
	}
	rec, err := inst.Materialize(site)
	if err != nil {
		t.Fatal(err)
	}
	return site, rec
}

func TestCompileApplication(t *testing.T) {
	site, rec := buildStackSite(t)
	art, err := Compile(workload.Find("cg"), rec, site)
	if err != nil {
		t.Fatal(err)
	}
	if art.Name != "cg.india.openmpi-1.4-gnu" {
		t.Errorf("Name = %q", art.Name)
	}
	f, err := elfimg.Parse(art.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	needed := strings.Join(f.Needed, ",")
	// MPI libraries with Fortran bindings.
	for _, want := range []string{"libmpi.so.0", "libmpi_f77.so.0", "libnsl.so.1", "libutil.so.1", "libgfortran.so.1", "libm.so.6", "libc.so.6"} {
		if !strings.Contains(needed, want) {
			t.Errorf("NEEDED lacks %s: %v", want, f.Needed)
		}
	}
	// Identification works on the compiled binary (Table I).
	impl, ok := mpistack.Identify(f.Needed)
	if !ok || impl != mpistack.OpenMPI {
		t.Errorf("Identify = %v, %v", impl, ok)
	}
	// glibc demand: cg caps at 2.3.4 but build glibc is 2.5 -> refs top out
	// at 2.3.4.
	top := libver.HighestGlibc(f.VersionRefNames())
	if !top.Equal(libver.V(2, 3, 4)) {
		t.Errorf("glibc demand = %v", top)
	}
	// Comments carry compiler and OS provenance.
	comments := strings.Join(f.Comments, ";")
	if !strings.Contains(comments, "GCC: (GNU) 4.1.2") || !strings.Contains(comments, "glibc 2.5") {
		t.Errorf("Comments = %v", f.Comments)
	}
	// Ground truth.
	if art.Truth.MPIABIEpoch != 14 || art.Truth.FeatureLevel != 1 || art.Truth.StackKey != "openmpi-1.4-gnu" {
		t.Errorf("Truth = %+v", art.Truth)
	}
}

func TestCompileRequiresInstalledCompiler(t *testing.T) {
	site := newSite("bare", libver.V(2, 5), 1)
	rec := &sitemodel.StackRecord{
		Key: "openmpi-1.4-intel", Impl: "openmpi", ImplVersion: "1.4",
		CompilerFamily: "intel", CompilerVersion: "12", Interconnect: "ethernet",
	}
	if _, err := Compile(workload.Find("is"), rec, site); err == nil {
		t.Error("compile without installed compiler should fail")
	}
}

func TestCompileHello(t *testing.T) {
	site, rec := buildStackSite(t)
	art, err := CompileHello(rec, site)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Truth.Hello || art.Truth.MPILevel != 1 {
		t.Errorf("Truth = %+v", art.Truth)
	}
	f, err := elfimg.Parse(art.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	// Hello is a C program: no Fortran runtime.
	if strings.Contains(strings.Join(f.Needed, ","), "gfortran") {
		t.Errorf("hello links fortran: %v", f.Needed)
	}
	// Minimal glibc demand.
	top := libver.HighestGlibc(f.VersionRefNames())
	if !top.Equal(libver.V(2, 0)) {
		t.Errorf("hello glibc demand = %v", top)
	}
	// Still identifies as the right MPI implementation.
	impl, ok := mpistack.Identify(f.Needed)
	if !ok || impl != mpistack.OpenMPI {
		t.Errorf("Identify = %v, %v", impl, ok)
	}
}

func TestCompileSerialHello(t *testing.T) {
	site, _ := buildStackSite(t)
	art, err := CompileSerialHello(Compiler{Family: GNU, Version: "4.1.2"}, site)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Truth.Serial {
		t.Error("not marked serial")
	}
	f, err := elfimg.Parse(art.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Needed) != 1 || f.Needed[0] != "libc.so.6" {
		t.Errorf("NEEDED = %v", f.Needed)
	}
	if _, ok := mpistack.Identify(f.Needed); ok {
		t.Error("serial hello identified as MPI")
	}
}

func TestVersionBannerParsing(t *testing.T) {
	for _, c := range []Compiler{
		{Family: GNU, Version: "4.4.5"},
		{Family: Intel, Version: "11.1"},
		{Family: PGI, Version: "11.5"},
	} {
		v, ok := parseBannerVersion(c.VersionBanner())
		if !ok || v != c.Version {
			t.Errorf("parseBannerVersion(%q) = %q, %v", c.VersionBanner(), v, ok)
		}
	}
	if _, ok := parseBannerVersion("no version here"); ok {
		t.Error("parsed a version from junk")
	}
}

// TestCompiledBinarySymbols: compiled artifacts carry a dynamic symbol
// table whose MPI imports scale with the code's feature level and whose
// libc imports are version-bound.
func TestCompiledBinarySymbols(t *testing.T) {
	site, rec := buildStackSite(t)
	level1, err := Compile(workload.Find("ep"), rec, site) // MPILevel 1
	if err != nil {
		t.Fatal(err)
	}
	level3, err := Compile(workload.Find("lu"), rec, site) // MPILevel 3
	if err != nil {
		t.Fatal(err)
	}
	imports := func(art *Artifact) map[string]elfimg.ImportedSymbol {
		f, err := elfimg.Parse(art.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]elfimg.ImportedSymbol{}
		for _, im := range f.Imports {
			m[im.Name] = im
		}
		return m
	}
	i1, i3 := imports(level1), imports(level3)
	if _, ok := i1["MPI_Init"]; !ok {
		t.Error("level-1 code lacks MPI_Init import")
	}
	if _, ok := i1["MPI_Win_create"]; ok {
		t.Error("level-1 code imports one-sided MPI")
	}
	if _, ok := i3["MPI_Win_create"]; !ok {
		t.Error("level-3 code lacks one-sided MPI import")
	}
	// libc imports are version-bound; the Fortran runtime import is not.
	if im := i3["printf"]; im.Library != "libc.so.6" || im.Version == "" {
		t.Errorf("printf import = %+v", im)
	}
	if im, ok := i3["_gfortran_st_write"]; !ok || im.Version != "" {
		t.Errorf("fortran runtime import = %+v (ok=%v)", im, ok)
	}
	// Every import of the binary resolves under eager binding at its own
	// build site with the stack loaded.
	snap := site.SnapshotEnv()
	defer site.RestoreEnv(snap)
	site.Setenv("LD_LIBRARY_PATH", rec.Prefix+"/lib")
	res, err := ldso.ResolveBytes(level3.Bytes, level3.Name, ldso.Options{
		FS:           site.FS(),
		LibraryPath:  []string{rec.Prefix + "/lib"},
		DefaultDirs:  site.DefaultLibDirs(),
		CheckSymbols: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("eager binding at build site failed:\nmissing=%v\nversion=%v\nundefined=%v",
			res.Missing, res.VersionErrors, res.UndefinedSymbols)
	}
}

// TestArtifactELFParsesOnce: concurrent callers get one parse of an
// artifact, equal to a fresh parse of its bytes.
func TestArtifactELFParsesOnce(t *testing.T) {
	art := &Artifact{Name: "hello", Bytes: elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
		Interp: "/lib64/ld-linux-x86-64.so.2", Needed: []string{"libc.so.6"},
	})}
	got := make([]*elfimg.File, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], _ = art.ELF()
		}(g)
	}
	wg.Wait()
	fresh, err := elfimg.Parse(art.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different File", g)
		}
	}
	if !reflect.DeepEqual(got[0], fresh) {
		t.Error("memoized parse differs from a fresh parse")
	}
	bad := &Artifact{Name: "junk", Bytes: []byte("not an ELF image")}
	if _, err := bad.ELF(); err == nil {
		t.Error("parsing junk succeeded")
	}
	if _, err := bad.ELF(); err == nil {
		t.Error("the memoized parse failure was lost")
	}
}
