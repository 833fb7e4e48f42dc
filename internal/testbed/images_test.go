package testbed

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/libver"
	"feam/internal/sitemodel"
	"feam/internal/vfs"
)

// mixedSpecs is a fleet shaped like the benchmark's: the Table II sites
// plus copies of india swept over ISA and C-library release, so many
// sites install the same stacks under different releases and some install
// images no other site does.
func mixedSpecs() []SiteSpec {
	specs := DefaultSpecs()
	tmpl := specs[3]
	for _, isa := range []string{"x86_64", "i686", "ppc64"} {
		for _, glibc := range []libver.Version{libver.V(2, 3, 4), libver.V(2, 5), libver.V(2, 11, 1), libver.V(2, 12)} {
			s := tmpl
			s.Name = tmpl.Name + "-" + isa + "-" + glibc.String()
			s.ISA, s.Glibc = isa, glibc
			specs = append(specs, s)
		}
	}
	return specs
}

// siteFiles maps every regular file of a site to its stored bytes.
func siteFiles(t *testing.T, s *sitemodel.Site) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := s.FS().Walk("/", func(p string, info vfs.FileInfo) error {
		if info.Kind != vfs.KindFile {
			return nil
		}
		data, err := s.FS().ReadFileShared(p)
		files[p] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// seedSharingLibs are libraries whose images share a text seed (soname,
// interpreter and number of needed entries) at different text sizes, so a
// store's text memo serves some of them a prefix of another's payload.
func seedSharingLibs() []sitemodel.Library {
	var libs []sitemodel.Library
	for i, size := range []int{4 << 10, 64<<10 + 3, 200 << 10, 64 << 10} {
		libs = append(libs, sitemodel.Library{
			FileName: fmt.Sprintf("libseed.so.1.%d", i), Soname: "libseed.so.1",
			Needed: []string{"libm.so.6", "libc.so.6"}, TextSize: size,
		})
	}
	return libs
}

// TestSharedImagesMatchFreshBuilds builds every site of a fleet twice:
// once from the fleet's image store, once with every library image built
// afresh by elfimg.Build. Every file must have the same bytes both ways,
// and across the fleet each distinct library image must be stored once.
// Libraries whose payloads share a seed at different sizes must also come
// out of one store byte for byte as elfimg.Build renders them, whether the
// store meets the shorter payloads first, the longer ones first, or all of
// them from concurrent installs.
func TestSharedImagesMatchFreshBuilds(t *testing.T) {
	for name, specs := range map[string][]SiteSpec{"table2": DefaultSpecs(), "mixed": mixedSpecs()} {
		t.Run(name, func(t *testing.T) {
			tb, err := BuildFrom(specs)
			if err != nil {
				t.Fatal(err)
			}
			stored := map[[32]byte]*byte{} // storage of each distinct ELF image
			images := 0
			for _, spec := range specs {
				fresh, err := buildSite(spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, want := siteFiles(t, tb.ByName[spec.Name]), siteFiles(t, fresh)
				if len(got) != len(want) {
					t.Errorf("%s: %d files from the store, %d built afresh", spec.Name, len(got), len(want))
				}
				for p, w := range want {
					g, ok := got[p]
					if !ok || !bytes.Equal(g, w) {
						t.Errorf("%s: %s differs from a fresh build", spec.Name, p)
						continue
					}
					if !bytes.HasPrefix(g, []byte("\x7fELF")) {
						continue
					}
					images++
					sum := sha256.Sum256(g)
					if first, ok := stored[sum]; !ok {
						stored[sum] = &g[0]
					} else if first != &g[0] {
						t.Errorf("%s: %s is a second copy of an image the fleet already holds", spec.Name, p)
					}
				}
			}
			t.Logf("%d sites, %d library files, %d distinct images", len(specs), images, len(stored))
			if len(stored) >= images {
				t.Errorf("no two library files share an image")
			}
		})
	}
	libs := seedSharingLibs()
	newSite := func(images *sitemodel.ImageStore) *sitemodel.Site {
		s := sitemodel.New("seed", sitemodel.Arch{Machine: elfimg.EMX8664, Class: elfimg.Class64},
			sitemodel.OSInfo{Distro: "CentOS", Version: "5.6"}, libver.V(2, 5))
		s.Images = images
		return s
	}
	install := func(t *testing.T, s *sitemodel.Site, lib sitemodel.Library) []byte {
		p, err := s.InstallLibrary("/usr/lib64", lib)
		if err != nil {
			t.Error(err)
			return nil
		}
		data, err := s.FS().ReadFileShared(p)
		if err != nil {
			t.Error(err)
		}
		return data
	}
	fresh := newSite(nil)
	want := make([][]byte, len(libs))
	for i, lib := range libs {
		want[i] = install(t, fresh, lib)
	}
	// Each order builds every library through a fresh store; the indexes
	// run over libs by ascending or descending text size.
	orders := map[string][]int{"shorter-first": {0, 3, 1, 2}, "longer-first": {2, 1, 3, 0}}
	got := func(t *testing.T, order string) [][]byte {
		images := &sitemodel.ImageStore{}
		out := make([][]byte, len(libs))
		if order != "concurrent" {
			site := newSite(images)
			for _, i := range orders[order] {
				out[i] = install(t, site, libs[i])
			}
			return out
		}
		var wg sync.WaitGroup
		for i := range libs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i] = install(t, newSite(images), libs[i])
			}(i)
		}
		wg.Wait()
		return out
	}
	for _, order := range []string{"shorter-first", "longer-first", "concurrent"} {
		t.Run("text-prefix/"+order, func(t *testing.T) {
			for i, data := range got(t, order) {
				if !bytes.Equal(data, want[i]) {
					t.Errorf("%s (%d-byte text) differs from a fresh build", libs[i].FileName, libs[i].TextSize)
				}
			}
		})
	}
}
