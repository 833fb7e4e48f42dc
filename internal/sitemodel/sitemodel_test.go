package sitemodel

import (
	"strings"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/libver"
)

func testSite() *Site {
	return New("fir",
		Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "Xeon", FeatureLevel: 1},
		OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18-238.el5", ReleaseFile: "/etc/redhat-release"},
		libver.V(2, 5))
}

func TestNewSiteSkeleton(t *testing.T) {
	s := testSite()
	for _, d := range []string{"/lib64", "/usr/lib64", "/lib", "/usr/lib", "/etc", "/tmp", "/opt"} {
		if !s.FS().IsDir(d) {
			t.Errorf("missing directory %s", d)
		}
	}
	rel, err := s.FS().ReadFile("/etc/redhat-release")
	if err != nil {
		t.Fatal(err)
	}
	if string(rel) != "CentOS release 5.6\n" {
		t.Errorf("release file = %q", rel)
	}
	pv, err := s.FS().ReadFile("/proc/version")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(pv), "2.6.18-238.el5") {
		t.Errorf("/proc/version = %q", pv)
	}
	if s.UnameMachine() != "x86_64" {
		t.Errorf("UnameMachine = %q", s.UnameMachine())
	}
	if s.Getenv("PATH") == "" {
		t.Error("default PATH not set")
	}
}

func TestEnvHandling(t *testing.T) {
	s := testSite()
	s.Setenv("X", "1")
	if s.Getenv("X") != "1" {
		t.Error("Setenv/Getenv broken")
	}
	env := s.Environ()
	env["X"] = "2"
	if s.Getenv("X") != "1" {
		t.Error("Environ aliases internal map")
	}
	s.Setenv("X", "")
	if _, ok := s.Environ()["X"]; ok {
		t.Error("empty Setenv should delete the variable")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := testSite()
	s.Setenv("LD_LIBRARY_PATH", "/opt/x/lib")
	snap := s.SnapshotEnv()
	s.Setenv("LD_LIBRARY_PATH", "/feam/staged:/opt/x/lib")
	s.Setenv("NEW", "v")
	s.RestoreEnv(snap)
	if s.Getenv("LD_LIBRARY_PATH") != "/opt/x/lib" {
		t.Errorf("LD_LIBRARY_PATH = %q", s.Getenv("LD_LIBRARY_PATH"))
	}
	if s.Getenv("NEW") != "" {
		t.Error("NEW survived restore")
	}
}

func TestDefaultLibDirs(t *testing.T) {
	s := testSite()
	dirs := s.DefaultLibDirs()
	want := []string{"/lib64", "/usr/lib64", "/lib", "/usr/lib"}
	if len(dirs) != len(want) {
		t.Fatalf("dirs = %v", dirs)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Errorf("dirs[%d] = %q, want %q", i, dirs[i], want[i])
		}
	}
	if err := s.AddLdSoConfDir("/opt/intel/11.1/lib"); err != nil {
		t.Fatal(err)
	}
	dirs = s.DefaultLibDirs()
	if dirs[len(dirs)-1] != "/opt/intel/11.1/lib" {
		t.Errorf("ld.so.conf dir not appended: %v", dirs)
	}
}

func TestInstallLibrary(t *testing.T) {
	s := testSite()
	p, err := s.InstallLibrary("/usr/lib64", Library{
		FileName: "libgfortran.so.1.0.0",
		Needed:   []string{"libm.so.6", "libc.so.6"},
		VerDefs:  []string{"libgfortran.so.1", "GFORTRAN_1.0"},
		ABIEpoch: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p != "/usr/lib64/libgfortran.so.1.0.0" {
		t.Errorf("path = %q", p)
	}
	// The installed file is a genuine ELF image with the right soname.
	data, err := s.FS().ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elfimg.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Soname != "libgfortran.so.1" {
		t.Errorf("soname = %q", f.Soname)
	}
	// Soname and dev symlinks exist and resolve to the real file.
	for _, link := range []string{"/usr/lib64/libgfortran.so.1", "/usr/lib64/libgfortran.so"} {
		rp, err := s.FS().ResolvePath(link)
		if err != nil {
			t.Fatalf("symlink %s: %v", link, err)
		}
		if rp != p {
			t.Errorf("%s resolves to %q", link, rp)
		}
	}
	if got := s.LibraryABIEpoch(p); got != 41 {
		t.Errorf("ABIEpoch = %d", got)
	}
	if got := s.LibraryABIEpoch("/usr/lib64/libgfortran.so.1"); got != 41 {
		t.Errorf("ABIEpoch through symlink = %d", got)
	}
}

func TestInstallLibraryValidation(t *testing.T) {
	s := testSite()
	if _, err := s.InstallLibrary("/lib64", Library{}); err == nil {
		t.Error("empty library accepted")
	}
}

func TestInstallLibraryNoClobberSymlink(t *testing.T) {
	s := testSite()
	if _, err := s.InstallLibrary("/lib64", Library{FileName: "libfoo.so.1.0"}); err != nil {
		t.Fatal(err)
	}
	// A second minor release must not fail on the existing symlinks.
	if _, err := s.InstallLibrary("/lib64", Library{FileName: "libfoo.so.1.1"}); err != nil {
		t.Fatalf("reinstall with existing symlinks: %v", err)
	}
}

func TestStackRegistry(t *testing.T) {
	s := testSite()
	rec := &StackRecord{Key: "openmpi-1.4-gnu", Impl: "openmpi", Prefix: "/opt/openmpi-1.4-gnu"}
	s.RegisterStack(rec)
	if s.FindStack("openmpi-1.4-gnu") != rec {
		t.Error("FindStack failed")
	}
	if s.FindStack("nope") != nil {
		t.Error("FindStack found a ghost")
	}
}

func TestInstallCLibrary(t *testing.T) {
	s := testSite()
	if err := s.InstallCLibrary(); err != nil {
		t.Fatal(err)
	}
	// libc.so.6 resolves to the versioned file and carries the ladder.
	data, err := s.FS().ReadFile("/lib64/libc.so.6")
	if err != nil {
		t.Fatal(err)
	}
	f, err := elfimg.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Soname != "libc.so.6" {
		t.Errorf("soname = %q", f.Soname)
	}
	found := false
	for _, vd := range f.VerDefs {
		if vd == "GLIBC_2.5" {
			found = true
		}
		if vd == "GLIBC_2.12" {
			t.Error("glibc 2.5 must not define GLIBC_2.12")
		}
	}
	if !found {
		t.Error("GLIBC_2.5 definition missing")
	}
	// The exec banner is attached for the EDC.
	out, ok := s.FS().Attr("/lib64/libc.so.6", AttrExecOutput)
	if !ok || !strings.Contains(out, "version 2.5") {
		t.Errorf("exec banner = %q ok=%v", out, ok)
	}
	// Companions exist.
	for _, l := range []string{"libm.so.6", "libpthread.so.0", "librt.so.1", "libdl.so.2", "libutil.so.1", "libnsl.so.1", "libcrypt.so.1", "libgcc_s.so.1"} {
		if !s.FS().Exists("/lib64/" + l) {
			t.Errorf("missing companion %s", l)
		}
	}
	// The loader is present.
	if !s.FS().Exists("/lib64/ld-linux-x86-64.so.2") {
		t.Error("missing dynamic loader")
	}
}

func TestEnvToolDetection(t *testing.T) {
	s := testSite()
	if s.EnvTool() != nil {
		t.Error("fresh site should have no env tool")
	}
	if err := s.FS().MkdirAll("/usr/share/Modules/modulefiles"); err != nil {
		t.Fatal(err)
	}
	tool := s.EnvTool()
	if tool == nil || tool.Name() != "modules" {
		t.Errorf("tool = %v", tool)
	}
}
