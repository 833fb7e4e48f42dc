package toolchain

import (
	"fmt"
	"strings"

	"feam/internal/elfimg"
	"feam/internal/libver"
	"feam/internal/sitemodel"
	"feam/internal/workload"
)

// CompilerInstall places a compiler and its runtime libraries at a site.
type CompilerInstall struct {
	Compiler
	// Prefix is the installation root for vendor compilers; GNU installs
	// into the system directories. Derived when empty.
	Prefix string
}

// DefaultPrefix returns the conventional install root for the vendor.
func (ci *CompilerInstall) DefaultPrefix() string {
	switch ci.Family {
	case Intel:
		return "/opt/intel/" + ci.Version
	case PGI:
		return "/opt/pgi/" + ci.Version
	default:
		return "/usr"
	}
}

// driverNames lists the compiler executables the install provides.
func (ci *CompilerInstall) driverNames() []string {
	switch ci.Family {
	case Intel:
		return []string{"icc", "icpc", "ifort"}
	case PGI:
		return []string{"pgcc", "pgCC", "pgf90"}
	default:
		if ci.major() < 4 {
			return []string{"gcc", "g++", "g77"}
		}
		return []string{"gcc", "g++", "gfortran"}
	}
}

// Materialize installs compiler drivers and runtime libraries at the site.
// Vendor runtime library directories are added to /etc/ld.so.conf, the way
// site administrators make them visible to every process.
func (ci *CompilerInstall) Materialize(site *sitemodel.Site) error {
	if ci.Prefix == "" {
		ci.Prefix = ci.DefaultPrefix()
	}
	binDir := ci.Prefix + "/bin"
	if ci.Family == GNU {
		binDir = "/usr/bin"
	}
	for _, drv := range ci.driverNames() {
		p := binDir + "/" + drv
		if err := site.FS().WriteString(p, fmt.Sprintf("#!/bin/sh\n# %s driver\n", drv)); err != nil {
			return err
		}
		if err := site.FS().SetAttr(p, sitemodel.AttrExecOutput, ci.VersionBanner()+"\n"); err != nil {
			return err
		}
	}

	libDir := ci.Prefix + "/lib"
	if ci.Family == GNU {
		libDir = site.SystemLibDir()
	}
	for _, lib := range ci.runtimeLibraries(site.Glibc) {
		if _, err := site.InstallLibrary(libDir, lib); err != nil {
			return fmt.Errorf("toolchain: %s: %v", ci.Compiler, err)
		}
	}
	if ci.Family != GNU {
		if err := site.AddLdSoConfDir(libDir); err != nil {
			return err
		}
	}
	return nil
}

// runtimeLibraries builds the installable runtime library set for the
// release: everything RuntimeDeps can reference across all languages.
func (ci *CompilerInstall) runtimeLibraries(glibc libver.Version) []sitemodel.Library {
	base := libver.GlibcSymbolVersions(glibc)
	if len(base) > 1 {
		base = base[:1]
	}
	libcNeed := []elfimg.VerNeed{{File: "libc.so.6", Versions: base}}
	comment := ci.CommentString()
	epoch := ci.RuntimeEpoch()

	// GNU runtimes are distro builds: like all locally built libraries they
	// reference symbols up to the distro's glibc, so copies of them cannot
	// migrate to older-glibc sites. Vendor (Intel/PGI) runtimes are built
	// for portability and reference only the baseline.
	distroLadder := libver.GlibcSymbolVersions(glibc)
	distroNeed := libcNeed
	if len(distroLadder) > 1 {
		distroNeed = []elfimg.VerNeed{{File: "libc.so.6",
			Versions: []string{distroLadder[0], distroLadder[len(distroLadder)-1]}}}
	}

	// Each runtime exports the entry points the compiler's generated code
	// imports (see Compiler.RuntimeDeps).
	exported := func(names ...string) []elfimg.ExportedSymbol {
		out := make([]elfimg.ExportedSymbol, 0, len(names))
		for _, n := range names {
			out = append(out, elfimg.ExportedSymbol{Name: n})
		}
		return out
	}

	var libs []sitemodel.Library
	switch ci.Family {
	case GNU:
		fso := ci.gfortranSoname()
		fortranSyms := exported("_gfortran_st_write", "_gfortran_transfer_real")
		if fso == "libg2c.so.0" {
			fortranSyms = exported("s_wsfe", "do_fio", "e_wsfe")
		}
		libs = append(libs, sitemodel.Library{
			FileName: fso + ".0.0", Soname: fso,
			Needed:   []string{"libm.so.6", "libc.so.6"},
			VerNeeds: distroNeed, Exports: fortranSyms,
			Comments: []string{comment}, TextSize: 800 << 10,
		})
		// libstdc++ keeps every historical versioned symbol (like glibc),
		// so C++ objects built by any same-or-older GCC resolve.
		var cxxExports []elfimg.ExportedSymbol
		for _, v := range ci.glibcxxLadder() {
			cxxExports = append(cxxExports,
				elfimg.ExportedSymbol{Name: "_ZNSt8ios_base4InitC1Ev", Version: v},
				elfimg.ExportedSymbol{Name: "_Znwm", Version: v})
		}
		libs = append(libs, sitemodel.Library{
			FileName: "libstdc++.so.6.0." + fmt.Sprint(len(ci.glibcxxLadder())),
			Soname:   "libstdc++.so.6",
			Needed:   []string{"libm.so.6", "libgcc_s.so.1", "libc.so.6"},
			VerNeeds: distroNeed,
			VerDefs:  append([]string{"libstdc++.so.6"}, ci.glibcxxLadder()...),
			Exports:  cxxExports,
			Comments: []string{comment}, TextSize: 900 << 10,
		})
	case Intel:
		intelSyms := map[string][]elfimg.ExportedSymbol{
			"libimf.so":      exported("__libimf_exp", "__libimf_pow"),
			"libsvml.so":     exported("__svml_sin2", "__svml_cos2"),
			"libintlc.so.5":  exported("__intel_new_proc_init"),
			"libifcore.so.5": exported("for_write_seq_lis", "for_read_seq_fmt"),
			"libifport.so.5": exported("for_date", "for_getenv"),
		}
		for _, so := range []string{"libimf.so", "libsvml.so", "libintlc.so.5", "libifcore.so.5", "libifport.so.5"} {
			libs = append(libs, sitemodel.Library{
				FileName: so, Soname: so, NoSymlinks: true,
				Needed:   []string{"libm.so.6", "libc.so.6"},
				VerNeeds: libcNeed, Exports: intelSyms[so],
				Comments: []string{comment},
				ABIEpoch: epoch, TextSize: 1600 << 10,
			})
		}
	case PGI:
		pgiSyms := map[string][]elfimg.ExportedSymbol{
			"libpgc.so":      exported("__pgio_init", "__c_mcopy8"),
			"libpgf90.so":    exported("pgf90_alloc", "pgf90_io_init"),
			"libpgftnrtl.so": exported("ftn_str_copy"),
		}
		for _, so := range []string{"libpgc.so", "libpgf90.so", "libpgftnrtl.so"} {
			libs = append(libs, sitemodel.Library{
				FileName: so, Soname: so, NoSymlinks: true,
				Needed:   []string{"libm.so.6", "libc.so.6"},
				VerNeeds: libcNeed, Exports: pgiSyms[so],
				Comments: []string{comment},
				ABIEpoch: epoch, TextSize: 1000 << 10,
			})
		}
	}
	return libs
}

// FindCompiler locates an installed compiler of the given family at a site
// by probing the conventional driver locations, returning its version.
func FindCompiler(site *sitemodel.Site, family Family) (Compiler, bool) {
	var candidates []string
	switch family {
	case Intel:
		candidates = globDrivers(site, "/opt/intel", "icc")
	case PGI:
		candidates = globDrivers(site, "/opt/pgi", "pgcc")
	default:
		candidates = []string{"/usr/bin/gcc"}
	}
	for _, p := range candidates {
		out, ok := site.FS().Attr(p, sitemodel.AttrExecOutput)
		if !ok {
			continue
		}
		if v, ok := parseBannerVersion(out); ok {
			return Compiler{Family: family, Version: v}, true
		}
	}
	return Compiler{}, false
}

// globDrivers finds versioned vendor driver paths like /opt/intel/11.1/bin/icc.
func globDrivers(site *sitemodel.Site, root, driver string) []string {
	if !site.FS().IsDir(root) {
		return nil
	}
	entries, err := site.FS().ReadDir(root)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		p := root + "/" + e.Name + "/bin/" + driver
		if site.FS().Exists(p) {
			out = append(out, p)
		}
	}
	return out
}

// parseBannerVersion extracts the release version from a compiler banner
// such as "gcc (GCC) 4.1.2" or "icc (ICC) 12 20100414". Release components
// are small numbers, which distinguishes them from date stamps.
func parseBannerVersion(banner string) (string, bool) {
	for _, f := range strings.FieldsFunc(banner, isBannerSpace) {
		// A version's first component parses with strconv.Atoi, so a word
		// that starts with neither a digit nor a sign is no version; skip
		// it without paying for ParseVersion's error.
		if c := f[0]; (c < '0' || c > '9') && c != '+' && c != '-' {
			continue
		}
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

// isBannerSpace reports whether r separates the words of a banner.
func isBannerSpace(r rune) bool { return r == ' ' || r == '\n' || r == '\t' }

// languageSupported reports whether the compiler can build the code at all;
// pre-GCC-4 GNU toolchains lack a Fortran 90 compiler.
func languageSupported(c Compiler, lang workload.Language) bool {
	if lang == workload.Fortran90 && !c.HasFortran90() {
		return false
	}
	return true
}
