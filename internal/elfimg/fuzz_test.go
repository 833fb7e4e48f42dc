package elfimg

import "testing"

// fuzzSeeds are realistic images rendered by the package's own builder —
// the richest inputs the parser accepts — so mutation starts from valid
// headers rather than having to rediscover the magic and geometry.
func fuzzSeeds() [][]byte {
	seeds := [][]byte{
		nil,
		[]byte("\x7fELF"),
		[]byte("not an elf at all"),
	}
	specs := []Spec{
		{Class: Class64, Machine: EMX8664, Type: TypeExec,
			Interp:   "/lib64/ld-linux-x86-64.so.2",
			Needed:   []string{"libmpich.so.1", "libc.so.6"},
			VerNeeds: []VerNeed{{File: "libc.so.6", Versions: []string{"GLIBC_2.2.5", "GLIBC_2.12"}}},
			Comments: []string{"GCC: (GNU) 4.1.2", "built on CentOS 5.6 (glibc 2.5)"},
			TextSize: 64},
		{Class: Class64, Machine: EMX8664, Type: TypeDyn,
			Soname:  "libmpich.so.1",
			Needed:  []string{"libc.so.6"},
			VerDefs: []string{"libmpich.so.1", "MPICH_1.2"},
			Exports: []ExportedSymbol{{Name: "MPI_Init", Version: "MPICH_1.2"}}},
		{Class: Class32, Machine: EM386, Type: TypeExec,
			Interp: "/lib/ld-linux.so.2",
			Needed: []string{"libc.so.6"}},
	}
	for _, spec := range specs {
		seeds = append(seeds, MustBuild(spec))
	}
	return seeds
}

// FuzzParseELF throws mutated images at the ELF parser. Parse must reject
// garbage with an error, never a panic or hang, and on acceptance every
// accessor must be callable: the BDC calls them on whatever bytes a user
// hands it.
func FuzzParseELF(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			if file != nil {
				t.Fatalf("Parse returned both a file and error %v", err)
			}
			return
		}
		// Every accessor the BDC touches must work on an accepted image.
		_ = file.Format()
		_ = file.Class.Bits()
		_ = file.Machine.String()
		_ = file.Type.String()
		for _, name := range file.VersionRefNames() {
			_ = name
		}
	})
}
