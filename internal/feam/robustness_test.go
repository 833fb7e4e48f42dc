package feam_test

import (
	"context"
	"strings"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/envmgmt"
	"feam/internal/feam"
	"feam/internal/libver"
	"feam/internal/sitemodel"
)

func minimalSite(t *testing.T) *sitemodel.Site {
	t.Helper()
	s := sitemodel.New("edge",
		sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64, CPUName: "X", FeatureLevel: 1},
		sitemodel.OSInfo{Distro: "CentOS", Version: "5.6", Kernel: "2.6.18", ReleaseFile: "/etc/redhat-release"},
		libver.V(2, 5))
	if err := s.InstallCLibrary(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiscoverWithCorruptLibc: a garbage C library file defeats both the
// exec-banner and the API fallback; discovery still succeeds with an
// undetermined glibc, and the C-library determinant passes permissively
// (the paper's tools-may-be-broken degradation).
func TestDiscoverWithCorruptLibc(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	s := minimalSite(t)
	if err := s.FS().WriteString("/lib64/libc-2.5.so", "THIS IS NOT AN ELF"); err != nil {
		t.Fatal(err)
	}
	env, err := eng.Discover(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Glibc.IsZero() {
		t.Errorf("glibc = %v from a corrupt library", env.Glibc)
	}
	// A prediction still forms; the C library determinant passes with a
	// note rather than blocking on missing information.
	img := elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
		Interp: "/lib64/ld-linux-x86-64.so.2",
		Needed: []string{"libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.3.4"}},
		},
	})
	desc, err := eng.Describe(ctx, img, "app")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{Desc: desc, Binary: img, Env: env, Site: s})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Determinants[feam.DetCLibrary].Outcome != feam.Pass {
		t.Errorf("C library determinant = %+v", pred.Determinants[feam.DetCLibrary])
	}
	if !strings.Contains(pred.Determinants[feam.DetCLibrary].Detail, "undetermined") {
		t.Errorf("detail = %q", pred.Determinants[feam.DetCLibrary].Detail)
	}
}

// TestDiscoverWithEmptyModulesDir: an installed-but-empty Environment
// Modules tree yields a modules site with zero stacks (not an error, and
// not a fallback to path search — the tool exists and answered).
func TestDiscoverWithEmptyModulesDir(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	s := minimalSite(t)
	if err := s.FS().MkdirAll(envmgmt.ModulesRoot); err != nil {
		t.Fatal(err)
	}
	env, err := eng.Discover(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if env.EnvTool != "modules" {
		t.Errorf("EnvTool = %q", env.EnvTool)
	}
	if len(env.Available) != 0 {
		t.Errorf("Available = %+v", env.Available)
	}
}

// TestDiscoverMissingReleaseFile: without any /etc/*release the distro is
// simply unknown; everything else proceeds.
func TestDiscoverMissingReleaseFile(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	s := minimalSite(t)
	if err := s.FS().Remove("/etc/redhat-release"); err != nil {
		t.Fatal(err)
	}
	env, err := eng.Discover(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if env.Distro != "" {
		t.Errorf("Distro = %q", env.Distro)
	}
	if env.OSType != "Linux" {
		t.Errorf("OSType = %q", env.OSType)
	}
}

// TestDiscoverWrapperWithoutBanner: a stack whose mpicc cannot be executed
// still appears, just without a confirmed compiler version.
func TestDiscoverWrapperWithoutBanner(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	s := minimalSite(t)
	if err := s.FS().WriteString("/opt/openmpi-1.4-gnu/lib/libmpi.so.0", "stub"); err != nil {
		t.Fatal(err)
	}
	// A real ELF so path search finds the prefix, but a bare wrapper file
	// with no exec output.
	if _, err := s.InstallLibrary("/opt/openmpi-1.4-gnu/lib", sitemodel.Library{
		FileName: "libmpi.so.0.0.2",
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.FS().WriteString("/opt/openmpi-1.4-gnu/bin/mpicc", "#!/bin/sh\n"); err != nil {
		t.Fatal(err)
	}
	env, err := eng.Discover(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Available) != 1 {
		t.Fatalf("Available = %+v", env.Available)
	}
	if env.Available[0].Key != "openmpi-1.4-gnu" {
		t.Errorf("key = %q", env.Available[0].Key)
	}
	if env.Available[0].CompilerVersion != "" {
		t.Errorf("compiler version = %q without a banner", env.Available[0].CompilerVersion)
	}
}

// TestEvaluateSharedLibraryInput: the TEC accepts a shared library as its
// subject (the recursive-resolution path exposed at the top level).
func TestEvaluateSharedLibraryInput(t *testing.T) {
	ctx := context.Background()
	eng := feam.New()
	s := minimalSite(t)
	img := elfimg.MustBuild(elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeDyn,
		Soname: "libscience.so.2",
		Needed: []string{"libm.so.6", "libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.3.4"}},
		},
		VerDefs: []string{"libscience.so.2"},
	})
	desc, err := eng.Describe(ctx, img, "libscience.so.2")
	if err != nil {
		t.Fatal(err)
	}
	if !desc.IsSharedLibrary() || !desc.LibVersion.Equal(libver.V(2)) {
		t.Errorf("desc = %+v", desc)
	}
	env, err := eng.Discover(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(ctx, feam.EvalRequest{Desc: desc, Binary: img, Env: env, Site: s})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Ready {
		t.Errorf("library not ready: %v", pred.Reasons)
	}
	// Not an MPI application: the stack determinant passes trivially.
	if pred.Determinants[feam.DetMPIStack].Detail != "not an MPI application" {
		t.Errorf("MPI determinant = %+v", pred.Determinants[feam.DetMPIStack])
	}
}
