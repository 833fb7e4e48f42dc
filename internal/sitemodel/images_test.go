package sitemodel

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"feam/internal/elfimg"
	"feam/internal/vfs"
)

// blobBytes reads a blob's bytes back through a scratch filesystem.
func blobBytes(t *testing.T, b *vfs.Blob) []byte {
	t.Helper()
	fs := vfs.New()
	if err := fs.WriteBlob("/image", b); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFileShared("/image")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestImageStoreKeysEveryField: an image store serves one image per spec
// to every caller, concurrent ones included; specs that differ in any
// field of elfimg.Spec, or of the structs its slices hold, get different
// images, also when only the split between two strings moves; and every
// image is byte-identical to a fresh elfimg.Build of its spec.
func TestImageStoreKeysEveryField(t *testing.T) {
	base := elfimg.Spec{
		Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeDyn,
		Needed: []string{"libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.2.5"}},
			{File: "libm.so.6", Versions: []string{"GLIBC_2.2.5"}},
		},
		VerDefs:  []string{"libx.so.1", "LIBX_1.0", "LIBX_1.1"},
		Comments: []string{"GCC: (GNU) 4.1.2"},
		Imports:  []elfimg.ImportedSymbol{{Name: "printf", Version: "GLIBC_2.2.5", Library: "libc.so.6"}},
		Exports:  []elfimg.ExportedSymbol{{Name: "x_init", Version: "LIBX_1.0"}},
		TextSize: 4 << 10,
	}
	// One variant per field of elfimg.Spec, and per field of the structs
	// its slices hold, each differing from base in that field alone; and
	// two that differ from each other only in where a string ends.
	variants := map[string]func(s *elfimg.Spec){
		"Class":             func(s *elfimg.Spec) { s.Class = elfimg.Class32 },
		"Machine":           func(s *elfimg.Spec) { s.Machine = elfimg.EMPPC64 },
		"Type":              func(s *elfimg.Spec) { s.Type = elfimg.TypeExec },
		"Interp":            func(s *elfimg.Spec) { s.Interp = "/lib64/ld-linux-x86-64.so.2" },
		"Soname":            func(s *elfimg.Spec) { s.Soname = "libx.so.1" },
		"Needed":            func(s *elfimg.Spec) { s.Needed = []string{"libc.so.6", "libm.so.6"} },
		"Needed split ab|c": func(s *elfimg.Spec) { s.Needed = []string{"ab", "c"} },
		"Needed split a|bc": func(s *elfimg.Spec) { s.Needed = []string{"a", "bc"} },
		"RPath":             func(s *elfimg.Spec) { s.RPath = "/opt/x/lib" },
		"RunPath":           func(s *elfimg.Spec) { s.RunPath = "/opt/x/lib" },
		"VerNeeds.File": func(s *elfimg.Spec) {
			s.VerNeeds = []elfimg.VerNeed{base.VerNeeds[0], {File: "libpthread.so.0", Versions: []string{"GLIBC_2.2.5"}}}
		},
		"VerNeeds.Versions": func(s *elfimg.Spec) {
			s.VerNeeds = []elfimg.VerNeed{{File: "libc.so.6", Versions: []string{"GLIBC_2.2.5", "GLIBC_2.3.4"}}, base.VerNeeds[1]}
		},
		"VerDefs":  func(s *elfimg.Spec) { s.VerDefs = []string{"libx.so.1", "LIBX_1.0", "LIBX_1.1", "LIBX_1.2"} },
		"Comments": func(s *elfimg.Spec) { s.Comments = []string{"GCC: (GNU) 4.4.5"} },
		"Imports.Name": func(s *elfimg.Spec) {
			s.Imports = []elfimg.ImportedSymbol{{Name: "puts", Version: "GLIBC_2.2.5", Library: "libc.so.6"}}
		},
		"Imports.Version": func(s *elfimg.Spec) {
			s.Imports = []elfimg.ImportedSymbol{{Name: "printf", Library: "libc.so.6"}}
		},
		"Imports.Library": func(s *elfimg.Spec) {
			s.Imports = []elfimg.ImportedSymbol{{Name: "printf", Version: "GLIBC_2.2.5", Library: "libm.so.6"}}
		},
		"Exports.Name":    func(s *elfimg.Spec) { s.Exports = []elfimg.ExportedSymbol{{Name: "x_fini", Version: "LIBX_1.0"}} },
		"Exports.Version": func(s *elfimg.Spec) { s.Exports = []elfimg.ExportedSymbol{{Name: "x_init", Version: "LIBX_1.1"}} },
		"TextSize":        func(s *elfimg.Spec) { s.TextSize = 8 << 10 },
	}
	specType := reflect.TypeOf(elfimg.Spec{})
	for i := 0; i < specType.NumField(); i++ {
		f := specType.Field(i)
		names := []string{f.Name}
		if f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct {
			names = names[:0]
			for j := 0; j < f.Type.Elem().NumField(); j++ {
				names = append(names, f.Name+"."+f.Type.Elem().Field(j).Name)
			}
		}
		for _, name := range names {
			if _, ok := variants[name]; !ok {
				t.Errorf("no variant for elfimg.Spec.%s: the store's key may miss it", name)
			}
		}
	}

	var st ImageStore
	specs := map[string]elfimg.Spec{"base": base}
	for name, mutate := range variants {
		s := base
		mutate(&s)
		specs[name] = s
	}
	// Eight goroutines ask for every spec at once; each spec must come
	// back as one image.
	got := make([]map[string]*vfs.Blob, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = map[string]*vfs.Blob{}
			for name, s := range specs {
				b, err := st.image(s)
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				got[g][name] = b
			}
		}(g)
	}
	wg.Wait()
	owner := map[*vfs.Blob]string{}
	for name, s := range specs {
		b := got[0][name]
		for g := range got {
			if got[g][name] != b {
				t.Errorf("%s: concurrent requests got different images", name)
			}
		}
		if other, ok := owner[b]; ok {
			t.Errorf("%s and %s share an image", name, other)
		}
		owner[b] = name
		want, err := elfimg.Build(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(blobBytes(t, b), want) {
			t.Errorf("%s: stored image differs from a fresh build", name)
		}
	}
}
