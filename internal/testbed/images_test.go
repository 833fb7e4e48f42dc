package testbed

import (
	"bytes"
	"crypto/sha256"
	"testing"

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

// TestSharedImagesMatchFreshBuilds builds every site of a fleet twice:
// once from the fleet's image store, once with every library image built
// afresh by elfimg.Build. Every file must have the same bytes both ways,
// and across the fleet each distinct library image must be stored once.
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
}
