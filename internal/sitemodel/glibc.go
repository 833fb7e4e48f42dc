package sitemodel

import (
	"fmt"

	"feam/internal/elfimg"
	"feam/internal/libver"
)

// AttrExecOutput holds the text a file "prints" when executed directly on
// the command line. The C library binary is executable on real Linux
// systems and prints its release banner; the EDC parses that banner to learn
// the glibc version.
const AttrExecOutput = "sim.exec-output"

// glibcBanner is the first line a real glibc prints when run directly.
func glibcBanner(v libver.Version) string {
	return fmt.Sprintf("GNU C Library stable release version %s, by Roland McGrath et al.", v)
}

// InstallCLibrary installs the complete C-library family for the site's
// configured glibc version into the system library directory: libc itself
// (with the full GLIBC_* version-definition ladder), the dynamic loader, and
// the companion libraries every toolchain links (libm, libpthread, librt,
// libdl, libutil, libnsl, libcrypt, libgcc_s). All carry the version ladder
// so symbol-version references resolve exactly as on a real system.
func (s *Site) InstallCLibrary() error {
	dir := s.SystemLibDir()
	ladder := libver.GlibcSymbolVersions(s.Glibc)
	banner := glibcBanner(s.Glibc)

	libcFile := fmt.Sprintf("libc-%s.so", s.Glibc)
	// The C library exports its entry points at the versions they were
	// introduced or revised — and keeps every historical versioned symbol,
	// which is why old binaries run on newer glibc. printf/exit/malloc stay
	// at the base; memcpy (the classic symbol-version migration) is
	// exported at every ladder revision up to this release.
	libcExports := []elfimg.ExportedSymbol{
		{Name: "printf", Version: ladder[0]},
		{Name: "exit", Version: ladder[0]},
		{Name: "malloc", Version: ladder[0]},
	}
	for _, v := range ladder {
		libcExports = append(libcExports, elfimg.ExportedSymbol{Name: "memcpy", Version: v})
	}
	if _, err := s.InstallLibrary(dir, Library{
		FileName:   libcFile,
		Soname:     "libc.so.6",
		VerDefs:    append([]string{"libc.so.6"}, ladder...),
		Exports:    libcExports,
		Comments:   []string{banner},
		NoSymlinks: true,
		TextSize:   1400 << 10,
	}); err != nil {
		return err
	}
	if err := s.fs.Symlink(libcFile, dir+"/libc.so.6"); err != nil {
		return err
	}
	if err := s.fs.SetAttr(dir+"/"+libcFile, AttrExecOutput, banner+"\n"); err != nil {
		return err
	}

	loader := "ld-linux-x86-64.so.2"
	if s.Arch.Class == elfimg.Class32 {
		loader = "ld-linux.so.2"
	}
	loaderFile := fmt.Sprintf("ld-%s.so", s.Glibc)
	if _, err := s.InstallLibrary(dir, Library{
		FileName:   loaderFile,
		Soname:     loader,
		VerDefs:    append([]string{loader}, ladder...),
		NoSymlinks: true,
		TextSize:   120 << 10,
	}); err != nil {
		return err
	}
	if err := s.fs.Symlink(loaderFile, dir+"/"+loader); err != nil {
		return err
	}

	companions := []struct {
		stem  string
		major int
		size  int
	}{
		{"m", 6, 580 << 10},
		{"pthread", 0, 140 << 10},
		{"rt", 1, 50 << 10},
		{"dl", 2, 20 << 10},
		{"util", 1, 16 << 10},
		{"nsl", 1, 90 << 10},
		{"crypt", 1, 40 << 10},
	}
	for _, c := range companions {
		fileName := fmt.Sprintf("lib%s-%s.so", c.stem, s.Glibc)
		soname := fmt.Sprintf("lib%s.so.%d", c.stem, c.major)
		exports := []elfimg.ExportedSymbol{}
		if c.stem == "m" {
			exports = append(exports, elfimg.ExportedSymbol{Name: "sqrt", Version: ladder[0]},
				elfimg.ExportedSymbol{Name: "pow", Version: ladder[0]})
		}
		if _, err := s.InstallLibrary(dir, Library{
			FileName:   fileName,
			Soname:     soname,
			Needed:     []string{"libc.so.6"},
			VerNeeds:   []elfimg.VerNeed{{File: "libc.so.6", Versions: baseVerNeed(s.Glibc)}},
			VerDefs:    append([]string{soname}, ladder...),
			Exports:    exports,
			NoSymlinks: true,
			TextSize:   c.size,
		}); err != nil {
			return err
		}
		if err := s.fs.Symlink(fileName, dir+"/"+soname); err != nil {
			return err
		}
	}

	// libgcc_s ships with the system compiler but is universally present.
	if _, err := s.InstallLibrary(dir, Library{
		FileName: "libgcc_s.so.1",
		Soname:   "libgcc_s.so.1",
		Needed:   []string{"libc.so.6"},
		VerNeeds: []elfimg.VerNeed{{File: "libc.so.6", Versions: baseVerNeed(s.Glibc)}},
		VerDefs:  []string{"libgcc_s.so.1", "GCC_3.0", "GCC_3.3", "GCC_4.2.0"},
		TextSize: 90 << 10,
	}); err != nil {
		return err
	}
	return nil
}

// UpgradeCLibrary replaces the site's installed C-library family with
// release v — the administrator action (an OS update or rollback) that
// changes a site's compatibility surface mid-survey. The old family's
// files and link names are removed from the system library directory, the
// new family is installed, and the resulting filesystem mutations bump the
// vfs generation counter, so every cached survey of the site is
// invalidated by fingerprint without any explicit cache call.
func (s *Site) UpgradeCLibrary(v libver.Version) error {
	dir := s.SystemLibDir()
	old := s.Glibc
	loader := "ld-linux-x86-64.so.2"
	if s.Arch.Class == elfimg.Class32 {
		loader = "ld-linux.so.2"
	}
	removals := []string{
		fmt.Sprintf("libc-%s.so", old), "libc.so.6",
		fmt.Sprintf("ld-%s.so", old), loader,
		"libgcc_s.so.1", "libgcc_s.so",
	}
	for _, c := range []struct {
		stem  string
		major int
	}{{"m", 6}, {"pthread", 0}, {"rt", 1}, {"dl", 2}, {"util", 1}, {"nsl", 1}, {"crypt", 1}} {
		removals = append(removals,
			fmt.Sprintf("lib%s-%s.so", c.stem, old),
			fmt.Sprintf("lib%s.so.%d", c.stem, c.major),
			fmt.Sprintf("lib%s.so", c.stem))
	}
	for _, name := range removals {
		p := dir + "/" + name
		// Lstat, not Exists: the symlink entries must go even when their
		// target file was already removed earlier in the sweep.
		if _, err := s.fs.Lstat(p); err != nil {
			continue
		}
		if err := s.fs.Remove(p); err != nil {
			return fmt.Errorf("sitemodel: upgrading C library at %s: %v", s.Name, err)
		}
	}
	s.Glibc = v
	return s.InstallCLibrary()
}

// baseVerNeed is the GLIBC reference set system companion libraries carry:
// the lowest ladder entry available, which always resolves.
func baseVerNeed(glibc libver.Version) []string {
	ladder := libver.GlibcSymbolVersions(glibc)
	if len(ladder) == 0 {
		return nil
	}
	return ladder[:1]
}
