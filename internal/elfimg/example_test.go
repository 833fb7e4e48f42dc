package elfimg_test

import (
	"fmt"

	"feam/internal/elfimg"
)

// Example shows a build/parse round trip of a shared library image.
func Example() {
	img := elfimg.MustBuild(elfimg.Spec{
		Class:   elfimg.Class64,
		Machine: elfimg.EMX8664,
		Type:    elfimg.TypeDyn,
		Soname:  "libmpich.so.1.2",
		Needed:  []string{"libibverbs.so.1", "libc.so.6"},
		VerNeeds: []elfimg.VerNeed{
			{File: "libc.so.6", Versions: []string{"GLIBC_2.3.4"}},
		},
		VerDefs: []string{"libmpich.so.1.2"},
	})
	f, _ := elfimg.Parse(img)
	fmt.Println(f.Format())
	fmt.Println(f.Soname)
	fmt.Println(f.Needed)
	fmt.Println(f.VersionRefNames())
	// Output:
	// elf64-x86-64
	// libmpich.so.1.2
	// [libibverbs.so.1 libc.so.6]
	// [GLIBC_2.3.4]
}
