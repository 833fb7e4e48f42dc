package ldso

import (
	"strings"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/libver"
	"feam/internal/sitemodel"
	"feam/internal/vfs"
)

// buildSite creates a 64-bit site with a glibc 2.5 C library installed.
func buildSite(t *testing.T) *sitemodel.Site {
	t.Helper()
	s := sitemodel.New("test",
		sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "Xeon", FeatureLevel: 1},
		sitemodel.OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18", ReleaseFile: "/etc/redhat-release"},
		libver.V(2, 5))
	if err := s.InstallCLibrary(); err != nil {
		t.Fatal(err)
	}
	return s
}

func optsFor(s *sitemodel.Site) Options {
	return Options{
		FS:          s.FS(),
		LibraryPath: nil,
		DefaultDirs: s.DefaultLibDirs(),
	}
}

// appBinary builds an executable requiring libc and an extra set of libs.
func appBinary(needed []string, verNeeds []elfimg.VerNeed) []byte {
	return elfimg.MustBuild(elfimg.Spec{
		Class:    elfimg.Class64,
		Machine:  elfimg.EMX8664,
		Type:     elfimg.TypeExec,
		Interp:   "/lib64/ld-linux-x86-64.so.2",
		Needed:   needed,
		VerNeeds: verNeeds,
		TextSize: 1024,
	})
}

func TestResolveSimpleSuccess(t *testing.T) {
	s := buildSite(t)
	bin := appBinary([]string{"libm.so.6", "libc.so.6"},
		[]elfimg.VerNeed{{File: "libc.so.6", Versions: []string{"GLIBC_2.2.5"}}})
	res, err := ResolveBytes(bin, "a.out", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("resolution failed: %s", res.Summary())
	}
	if len(res.Order) != 2 {
		t.Errorf("Order = %v", res.Order)
	}
	if res.Objects["libc.so.6"].RealPath != "/lib64/libc-2.5.so" {
		t.Errorf("libc path = %q", res.Objects["libc.so.6"].RealPath)
	}
}

func TestResolveMissingLibrary(t *testing.T) {
	s := buildSite(t)
	bin := appBinary([]string{"libgfortran.so.1", "libc.so.6"}, nil)
	res, err := ResolveBytes(bin, "bt.A.4", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("expected failure")
	}
	if len(res.Missing) != 1 || res.Missing[0].Name != "libgfortran.so.1" {
		t.Errorf("Missing = %v", res.Missing)
	}
	if res.Missing[0].RequestedBy != "bt.A.4" {
		t.Errorf("RequestedBy = %q", res.Missing[0].RequestedBy)
	}
	if got := res.MissingNames(); len(got) != 1 || got[0] != "libgfortran.so.1" {
		t.Errorf("MissingNames = %v", got)
	}
	if !strings.Contains(res.Summary(), "libgfortran.so.1 => not found") {
		t.Errorf("Summary = %q", res.Summary())
	}
}

func TestResolveTransitiveDependencies(t *testing.T) {
	s := buildSite(t)
	// libmpi depends on libopen-rte which depends on libopen-pal.
	if _, err := s.InstallLibrary("/usr/lib64", sitemodel.Library{
		FileName: "libopen-pal.so.0.0.0", Needed: []string{"libc.so.6"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallLibrary("/usr/lib64", sitemodel.Library{
		FileName: "libopen-rte.so.0.0.0", Needed: []string{"libopen-pal.so.0", "libc.so.6"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallLibrary("/usr/lib64", sitemodel.Library{
		FileName: "libmpi.so.0.0.2", Needed: []string{"libopen-rte.so.0", "libm.so.6", "libc.so.6"},
	}); err != nil {
		t.Fatal(err)
	}
	bin := appBinary([]string{"libmpi.so.0", "libc.so.6"}, nil)
	res, err := ResolveBytes(bin, "cg.B.8", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("resolution failed: %s", res.Summary())
	}
	for _, want := range []string{"libmpi.so.0", "libopen-rte.so.0", "libopen-pal.so.0", "libm.so.6", "libc.so.6"} {
		if res.Objects[want] == nil {
			t.Errorf("closure missing %s (order %v)", want, res.Order)
		}
	}
	// Transitive missing: remove libopen-pal and the closure must report it.
	if err := s.FS().Remove("/usr/lib64/libopen-pal.so.0"); err != nil {
		t.Fatal(err)
	}
	if err := s.FS().Remove("/usr/lib64/libopen-pal.so.0.0.0"); err != nil {
		t.Fatal(err)
	}
	res, err = ResolveBytes(bin, "cg.B.8", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("expected transitive failure")
	}
	if res.Missing[0].Name != "libopen-pal.so.0" || res.Missing[0].RequestedBy != "libopen-rte.so.0" {
		t.Errorf("Missing = %v", res.Missing)
	}
}

func TestLibraryPathPrecedence(t *testing.T) {
	s := buildSite(t)
	// Two versions of the same soname: LD_LIBRARY_PATH one must win.
	if _, err := s.InstallLibrary("/usr/lib64", sitemodel.Library{FileName: "libx.so.1.0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallLibrary("/opt/custom/lib", sitemodel.Library{FileName: "libx.so.1.9"}); err != nil {
		t.Fatal(err)
	}
	bin := appBinary([]string{"libx.so.1", "libc.so.6"}, nil)
	opts := optsFor(s)
	opts.LibraryPath = []string{"/opt/custom/lib"}
	res, err := ResolveBytes(bin, "a.out", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Objects["libx.so.1"].RealPath; got != "/opt/custom/lib/libx.so.1.9" {
		t.Errorf("libx resolved to %q", got)
	}
	// ExtraSearchDirs beat LD_LIBRARY_PATH (FEAM's staged copies).
	if _, err := s.InstallLibrary("/feam/staged", sitemodel.Library{FileName: "libx.so.1.5"}); err != nil {
		t.Fatal(err)
	}
	opts.ExtraSearchDirs = []string{"/feam/staged"}
	res, err = ResolveBytes(bin, "a.out", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Objects["libx.so.1"].RealPath; got != "/feam/staged/libx.so.1.5" {
		t.Errorf("libx resolved to %q", got)
	}
}

func TestRPathSearch(t *testing.T) {
	s := buildSite(t)
	if _, err := s.InstallLibrary("/opt/app/lib", sitemodel.Library{FileName: "libprivate.so.2.0"}); err != nil {
		t.Fatal(err)
	}
	bin := elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
		Interp: "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{"libprivate.so.2", "libc.so.6"},
		RPath:  "/opt/app/lib",
	})
	res, err := ResolveBytes(bin, "app", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("rpath resolution failed: %s", res.Summary())
	}
}

func TestWrongClassRejected(t *testing.T) {
	s := buildSite(t)
	// A 32-bit libz where a 64-bit binary looks for it.
	if _, err := s.InstallLibrary("/usr/lib64", sitemodel.Library{
		FileName: "libz.so.1.2.3", Class: elfimg.Class32, Machine: elfimg.EM386,
	}); err != nil {
		t.Fatal(err)
	}
	bin := appBinary([]string{"libz.so.1", "libc.so.6"}, nil)
	res, err := ResolveBytes(bin, "a.out", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("expected wrong-class failure")
	}
	if !res.Missing[0].WrongClass {
		t.Errorf("Missing = %+v", res.Missing[0])
	}
	if !strings.Contains(res.Missing[0].String(), "wrong ELF class") {
		t.Errorf("String = %q", res.Missing[0].String())
	}
	// A correct-class copy later in the path is chosen instead.
	if _, err := s.InstallLibrary("/usr/lib", sitemodel.Library{FileName: "libz.so.1.2.3"}); err != nil {
		t.Fatal(err)
	}
	res, err = ResolveBytes(bin, "a.out", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("fallback to correct class failed: %s", res.Summary())
	}
}

func TestVersionCheckFailure(t *testing.T) {
	s := buildSite(t) // glibc 2.5
	bin := appBinary([]string{"libc.so.6"},
		[]elfimg.VerNeed{{File: "libc.so.6", Versions: []string{"GLIBC_2.2.5", "GLIBC_2.12"}}})
	res, err := ResolveBytes(bin, "leslie3d", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("expected version failure")
	}
	if len(res.VersionErrors) != 1 {
		t.Fatalf("VersionErrors = %v", res.VersionErrors)
	}
	ve := res.VersionErrors[0]
	if ve.Version != "GLIBC_2.12" || ve.Library != "libc.so.6" || ve.RequestedBy != "leslie3d" {
		t.Errorf("VersionError = %+v", ve)
	}
	if !strings.Contains(ve.String(), "version `GLIBC_2.12' not found") {
		t.Errorf("String = %q", ve.String())
	}
}

func TestVersionCheckInDependency(t *testing.T) {
	s := buildSite(t)
	// A library that itself requires a newer glibc than installed.
	if _, err := s.InstallLibrary("/usr/lib64", sitemodel.Library{
		FileName: "libhdf5.so.6.0.0",
		Needed:   []string{"libc.so.6"},
		VerNeeds: []elfimg.VerNeed{{File: "libc.so.6", Versions: []string{"GLIBC_2.7"}}},
	}); err != nil {
		t.Fatal(err)
	}
	bin := appBinary([]string{"libhdf5.so.6", "libc.so.6"}, nil)
	res, err := ResolveBytes(bin, "app", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("expected dependency version failure")
	}
	if res.VersionErrors[0].RequestedBy != "libhdf5.so.6" {
		t.Errorf("VersionErrors = %v", res.VersionErrors)
	}
}

// TestResolveFile resolves a binary that lives on the site filesystem:
// the memoized parse from ReadELF feeds Resolve directly, and the root
// object is that very File.
func TestResolveFile(t *testing.T) {
	s := buildSite(t)
	bin := appBinary([]string{"libc.so.6"}, nil)
	if err := s.FS().WriteFile("/home/user/a.out", bin); err != nil {
		t.Fatal(err)
	}
	f, err := s.FS().ReadELF("/home/user/a.out")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resolve(f, "/home/user/a.out", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("resolution failed: %s", res.Summary())
	}
	if res.Root.File != f || res.Root.Name != "/home/user/a.out" {
		t.Errorf("root = %+v, want the parsed file under its path", res.Root)
	}
	if _, err := Resolve(f, "a.out", Options{}); err == nil {
		t.Error("resolution without a filesystem should error")
	}
	if _, err := s.FS().ReadELF("/nope"); err == nil {
		t.Error("missing file should error")
	}
	if err := s.FS().WriteString("/home/user/script.sh", "#!/bin/sh\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FS().ReadELF("/home/user/script.sh"); err == nil {
		t.Error("non-ELF should error")
	}
}

func TestResolveCycleTerminates(t *testing.T) {
	s := buildSite(t)
	// Mutually dependent libraries must not loop.
	if _, err := s.InstallLibrary("/usr/lib64", sitemodel.Library{
		FileName: "liba.so.1.0", Needed: []string{"libb.so.1", "libc.so.6"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallLibrary("/usr/lib64", sitemodel.Library{
		FileName: "libb.so.1.0", Needed: []string{"liba.so.1", "libc.so.6"},
	}); err != nil {
		t.Fatal(err)
	}
	bin := appBinary([]string{"liba.so.1", "libc.so.6"}, nil)
	res, err := ResolveBytes(bin, "a.out", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("cyclic deps failed: %s", res.Summary())
	}
}

func TestResolveNoFS(t *testing.T) {
	bin := appBinary(nil, nil)
	if _, err := ResolveBytes(bin, "a.out", Options{}); err == nil {
		t.Error("expected error without filesystem")
	}
}

func TestNonELFCandidateSkipped(t *testing.T) {
	s := buildSite(t)
	// A linker-script style text file with a library name is skipped and
	// the search continues (GNU libc ships libc.so as a text file).
	if err := s.FS().WriteString("/usr/lib64/liby.so.1", "GROUP ( /lib64/liby.so.1 )"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallLibrary("/usr/lib", sitemodel.Library{FileName: "liby.so.1.0"}); err != nil {
		t.Fatal(err)
	}
	bin := appBinary([]string{"liby.so.1", "libc.so.6"}, nil)
	res, err := ResolveBytes(bin, "a.out", optsFor(s))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("text candidate not skipped: %s", res.Summary())
	}
	if got := res.Objects["liby.so.1"].RealPath; got != "/usr/lib/liby.so.1.0" {
		t.Errorf("liby resolved to %q", got)
	}
}

func TestVFSBackedOnly(t *testing.T) {
	// Sanity: resolver operates purely on the provided FS.
	fs := vfs.New()
	bin := appBinary([]string{"libc.so.6"}, nil)
	res, err := ResolveBytes(bin, "a.out", Options{FS: fs, DefaultDirs: []string{"/lib64"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("empty filesystem cannot satisfy libc")
	}
}
