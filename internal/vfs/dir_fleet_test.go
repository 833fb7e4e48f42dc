package vfs_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"feam/internal/envmgmt"
	"feam/internal/scenario"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/vfs"
)

// TestDirMatchesPathLookup checks the directory handle against the path
// walk at every site of the isa-mix fleet, over every directory the
// loader searches there — the default directories, ld.so.conf lines, each
// registered stack's LD_LIBRARY_PATH entries and every RPATH and RUNPATH
// in the fleet — plus awkward directories, and over every NEEDED name in
// the fleet plus names containing "/", "." or "..".
func TestDirMatchesPathLookup(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "isa-mix.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.LoadFleet(data)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := scenario.BuildFleet(spec)
	if err != nil {
		t.Fatal(err)
	}

	names := map[string]bool{
		"": true, ".": true, "..": true, "../lib64/libc.so.6": true,
		"lib64/libc.so.6": true, "/libc.so.6": true, "libc.so.6/": true,
	}
	runPaths := map[string]bool{}
	for _, site := range tb.Sites {
		fs := site.FS()
		if err := fs.Walk("/", func(p string, info vfs.FileInfo) error {
			if info.Kind != vfs.KindFile {
				return nil
			}
			f, err := fs.ReadELF(p)
			if err != nil {
				return nil
			}
			for _, n := range f.Needed {
				names[n] = true
			}
			for _, rp := range []string{f.RPath, f.RunPath} {
				if rp != "" {
					runPaths[rp] = true
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	needed := len(names)

	for _, site := range tb.Sites {
		fs := site.FS()
		for _, link := range [][2]string{
			{site.SystemLibDir(), "/feam-test/libdir"},
			{"/feam-test/nowhere", "/feam-test/dangling"},
			{"/feam-test/loop", "/feam-test/loop"},
		} {
			if err := fs.Symlink(link[0], link[1]); err != nil {
				t.Fatal(err)
			}
		}
		dirs := loaderDirs(t, site)
		for rp := range runPaths {
			dirs = append(dirs, rp)
		}
		// Every entry of a searched directory is a name some binary may
		// need: a hit for each library and link the site installs.
		for _, dir := range dirs {
			entries, _ := fs.ReadDir(dir)
			for _, e := range entries {
				names[e.Name] = true
			}
		}
		sys := site.SystemLibDir()
		dirs = append(dirs, "", "/", strings.TrimPrefix(sys, "/"), sys+"/", "/"+sys,
			sys+"/../"+filepath.Base(sys), sys+"/.", "/feam-test/libdir", "/feam-test/dangling",
			"/feam-test/loop", "/etc/ld.so.conf", "/no/such/dir")
		for _, dir := range dirs {
			for name := range names {
				vfs.CheckDirLookup(t, fs, dir, name)
			}
		}
		if t.Failed() {
			return
		}
	}
	t.Logf("%d sites, %d NEEDED names, %d names in all, %d RPATH/RUNPATH directories",
		len(tb.Sites), needed, len(names), len(runPaths))
}

// loaderDirs returns the directories the loader searches at site: the
// default directories with ld.so.conf, and the LD_LIBRARY_PATH entries of
// the site's environment with each registered stack active.
func loaderDirs(t *testing.T, site *sitemodel.Site) []string {
	seen := map[string]bool{}
	add := func(dirs []string) {
		for _, d := range dirs {
			seen[d] = true
		}
	}
	add(site.DefaultLibDirs())
	add(envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH")))
	for _, rec := range site.Stacks {
		snap := site.SnapshotEnv()
		if err := testbed.ActivateStack(site, rec.Key); err != nil {
			t.Fatal(err)
		}
		add(envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH")))
		site.RestoreEnv(snap)
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}
