package toolchain

import (
	"fmt"

	"feam/internal/elfimg"
	"feam/internal/libver"
	"feam/internal/mpistack"
	"feam/internal/sitemodel"
	"feam/internal/workload"
)

// GroundTruth carries the hidden attributes of a compiled binary that the
// execution simulator needs. FEAM's prediction model never reads this
// struct; everything it may use is present in the binary's ELF metadata.
type GroundTruth struct {
	// CodeName and Suite identify the workload ("" for hello-world
	// programs).
	CodeName string
	Suite    workload.Suite
	// MPILevel grades MPI feature usage (0 for serial programs).
	MPILevel int

	// BuildSite is where the binary was compiled.
	BuildSite string
	// StackKey identifies the MPI stack used ("" for serial programs).
	StackKey string
	// Impl/ImplVersion name the MPI implementation linked in.
	Impl        string
	ImplVersion string
	// MPIABIEpoch is the implementation ABI generation linked against.
	MPIABIEpoch int

	// CompilerFamily/CompilerVersion identify the compiler.
	CompilerFamily  string
	CompilerVersion string
	// RuntimeEpochs maps runtime-library sonames to the minimum hidden ABI
	// epoch the binary requires of them.
	RuntimeEpochs map[string]int
	// FeatureLevel is the CPU ISA extension level the generated code needs.
	FeatureLevel int
	// BuildGlibc is the C library release of the build site.
	BuildGlibc libver.Version
	// Hello marks MPI hello-world test programs.
	Hello bool
	// Serial marks non-MPI programs.
	Serial bool
	// Static marks statically linked binaries: no dynamic dependencies,
	// but still launch-protocol bound to their MPI implementation.
	Static bool
}

// Artifact is a compiled binary plus its ground truth.
type Artifact struct {
	// Name is a descriptive identifier, e.g. "bt.ranger.openmpi-1.3-intel".
	Name string
	// Bytes is the complete ELF image.
	Bytes []byte
	Truth GroundTruth

	// elf memoizes ELF's parse of Bytes.
	elf elfimg.ParseMemo
}

// Size returns the image size in bytes.
func (a *Artifact) Size() int { return len(a.Bytes) }

// ELF returns the parsed image of Bytes. The first call parses it; later
// calls, from any goroutine, return the same *elfimg.File (or the same
// parse failure), so a hello world probed at many sites is parsed once.
// The File is shared and read-only, and Bytes must not change once ELF
// has been called.
func (a *Artifact) ELF() (*elfimg.File, error) { return a.elf.Parse(a.Bytes) }

// CompileError describes why a compilation failed.
type CompileError struct {
	Code   string
	Stack  string
	Reason string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("toolchain: cannot compile %s with %s: %s", e.Code, e.Stack, e.Reason)
}

// baseDeps is the universal dynamically linked base: every binary gets
// these, with glibc symbol-version references per the workload's demand.
func baseDeps() []string {
	return []string{"libm.so.6", "libpthread.so.0", "libc.so.6"}
}

// CanCompile applies the build-time compatibility rules that shrink the
// paper's test set: missing Fortran 90 support in pre-GCC-4 toolchains and
// code/compiler incompatibilities observed in practice.
func CanCompile(code *workload.Code, c Compiler) error {
	if !languageSupported(c, code.Lang) {
		return &CompileError{Code: code.Name, Stack: c.String(),
			Reason: fmt.Sprintf("no Fortran 90 compiler in %s", c)}
	}
	// 115.fds4 and 126.lammps exercise language corners the simulated PGI
	// front end rejects (mirroring the paper's "some benchmarks would not
	// compile with certain MPI stack combinations").
	if c.Family == PGI && (code.Name == "115.fds4" || code.Name == "126.lammps") {
		return &CompileError{Code: code.Name, Stack: c.String(), Reason: "PGI front-end rejects source"}
	}
	// The NPB 2.4 reference build system hard-codes g77-style flags its
	// Fortran kernels need; the PGI driver rejects them.
	if c.Family == PGI && code.Suite == workload.NPB && code.Lang == workload.Fortran77 {
		return &CompileError{Code: code.Name, Stack: c.String(), Reason: "NPB 2.4 make.def flags unsupported by PGI"}
	}
	return nil
}

// Compile builds an application binary for code using the given stack
// record at the build site. The stack must be registered at the site and
// its compiler installed there.
func Compile(code *workload.Code, stack *sitemodel.StackRecord, site *sitemodel.Site) (*Artifact, error) {
	family, ok := FamilyFromKey(stack.CompilerFamily)
	if !ok {
		return nil, fmt.Errorf("toolchain: unknown compiler family %q", stack.CompilerFamily)
	}
	comp := Compiler{Family: family, Version: stack.CompilerVersion}
	if _, found := FindCompiler(site, family); !found {
		return nil, &CompileError{Code: code.Name, Stack: stack.Key, Reason: "compiler not installed at site"}
	}
	if err := CanCompile(code, comp); err != nil {
		return nil, err
	}
	impl, ok := mpistack.ImplFromKey(stack.Impl)
	if !ok {
		return nil, fmt.Errorf("toolchain: unknown MPI implementation %q", stack.Impl)
	}
	rel := mpistack.Release{Impl: impl, Version: stack.ImplVersion}

	needed, verNeeds, imports, runtimeEpochs := linkSets(code.Lang, code.GlibcDemand(site.Glibc), comp, &rel, stack.Interconnect, code.MPILevel)

	img, err := elfimg.Build(elfimg.Spec{
		Class:    site.Arch.Class,
		Machine:  site.Arch.Machine,
		Type:     elfimg.TypeExec,
		Interp:   interpFor(site),
		Needed:   needed,
		VerNeeds: verNeeds,
		Imports:  imports,
		Exports:  []elfimg.ExportedSymbol{{Name: "main"}},
		Comments: buildComments(comp, site),
		TextSize: code.TextKB << 10,
	})
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Name:  fmt.Sprintf("%s.%s.%s", code.Name, site.Name, stack.Key),
		Bytes: img,
		Truth: GroundTruth{
			CodeName: code.Name, Suite: code.Suite, MPILevel: code.MPILevel,
			BuildSite: site.Name, StackKey: stack.Key,
			Impl: stack.Impl, ImplVersion: stack.ImplVersion, MPIABIEpoch: rel.ABIEpoch(),
			CompilerFamily: stack.CompilerFamily, CompilerVersion: stack.CompilerVersion,
			RuntimeEpochs: runtimeEpochs,
			FeatureLevel:  comp.FeatureLevel(site.Arch.FeatureLevel),
			BuildGlibc:    site.Glibc.Clone(),
		},
	}, nil
}

// CompileStatic builds a statically linked application binary. It requires
// the stack to have been installed with static archives — the paper notes
// that at sites without them, "scientists ... do not have the option to
// prepare statically linked binaries for migration" (§VI.C). The resulting
// binary has no dynamic dependencies, which also means FEAM's Table I
// identification cannot determine its MPI implementation: the launcher
// protocol still binds it to the implementation it embeds.
func CompileStatic(code *workload.Code, stack *sitemodel.StackRecord, site *sitemodel.Site) (*Artifact, error) {
	family, ok := FamilyFromKey(stack.CompilerFamily)
	if !ok {
		return nil, fmt.Errorf("toolchain: unknown compiler family %q", stack.CompilerFamily)
	}
	comp := Compiler{Family: family, Version: stack.CompilerVersion}
	if _, found := FindCompiler(site, family); !found {
		return nil, &CompileError{Code: code.Name, Stack: stack.Key, Reason: "compiler not installed at site"}
	}
	if err := CanCompile(code, comp); err != nil {
		return nil, err
	}
	if !stack.StaticLibs {
		return nil, &CompileError{Code: code.Name, Stack: stack.Key,
			Reason: "MPI implementation not installed with static libraries"}
	}
	impl, ok := mpistack.ImplFromKey(stack.Impl)
	if !ok {
		return nil, fmt.Errorf("toolchain: unknown MPI implementation %q", stack.Impl)
	}
	rel := mpistack.Release{Impl: impl, Version: stack.ImplVersion}
	img, err := elfimg.Build(elfimg.Spec{
		Class:   site.Arch.Class,
		Machine: site.Arch.Machine,
		Type:    elfimg.TypeExec,
		// Static binaries have no interpreter, NEEDED entries, or version
		// references; everything is embedded.
		Comments: buildComments(comp, site),
		TextSize: (code.TextKB + 2048) << 10, // static images are much larger
	})
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Name:  fmt.Sprintf("%s.%s.%s.static", code.Name, site.Name, stack.Key),
		Bytes: img,
		Truth: GroundTruth{
			CodeName: code.Name, Suite: code.Suite, MPILevel: code.MPILevel,
			BuildSite: site.Name, StackKey: stack.Key,
			Impl: stack.Impl, ImplVersion: stack.ImplVersion, MPIABIEpoch: rel.ABIEpoch(),
			CompilerFamily: stack.CompilerFamily, CompilerVersion: stack.CompilerVersion,
			FeatureLevel: comp.FeatureLevel(site.Arch.FeatureLevel),
			BuildGlibc:   site.Glibc.Clone(),
			Static:       true,
		},
	}, nil
}

// CompileHello builds the MPI "hello world" test program FEAM uses to probe
// stack usability and cross-site compatibility. It is a tiny C program:
// basic MPI usage, minimal glibc demand, but the same compiler runtime and
// MPI link set as a real application.
func CompileHello(stack *sitemodel.StackRecord, site *sitemodel.Site) (*Artifact, error) {
	family, ok := FamilyFromKey(stack.CompilerFamily)
	if !ok {
		return nil, fmt.Errorf("toolchain: unknown compiler family %q", stack.CompilerFamily)
	}
	comp := Compiler{Family: family, Version: stack.CompilerVersion}
	impl, ok := mpistack.ImplFromKey(stack.Impl)
	if !ok {
		return nil, fmt.Errorf("toolchain: unknown MPI implementation %q", stack.Impl)
	}
	rel := mpistack.Release{Impl: impl, Version: stack.ImplVersion}

	demand := libver.GlibcSymbolVersions(site.Glibc)
	if len(demand) > 1 {
		demand = demand[:1]
	}
	needed, verNeeds, imports, runtimeEpochs := linkSets(workload.C, demand, comp, &rel, stack.Interconnect, 1)
	img, err := elfimg.Build(elfimg.Spec{
		Class:    site.Arch.Class,
		Machine:  site.Arch.Machine,
		Type:     elfimg.TypeExec,
		Interp:   interpFor(site),
		Needed:   needed,
		VerNeeds: verNeeds,
		Imports:  imports,
		Exports:  []elfimg.ExportedSymbol{{Name: "main"}},
		Comments: buildComments(comp, site),
		TextSize: 8 << 10,
	})
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Name:  fmt.Sprintf("hello.%s.%s", site.Name, stack.Key),
		Bytes: img,
		Truth: GroundTruth{
			MPILevel: 1, Hello: true,
			BuildSite: site.Name, StackKey: stack.Key,
			Impl: stack.Impl, ImplVersion: stack.ImplVersion, MPIABIEpoch: rel.ABIEpoch(),
			CompilerFamily: stack.CompilerFamily, CompilerVersion: stack.CompilerVersion,
			RuntimeEpochs: runtimeEpochs,
			FeatureLevel:  comp.FeatureLevel(site.Arch.FeatureLevel),
			BuildGlibc:    site.Glibc.Clone(),
		},
	}, nil
}

// CompileSerialHello builds the non-MPI hello-world used for basic C
// library and environment testing.
func CompileSerialHello(comp Compiler, site *sitemodel.Site) (*Artifact, error) {
	demand := libver.GlibcSymbolVersions(site.Glibc)
	if len(demand) > 1 {
		demand = demand[:1]
	}
	needed := []string{"libc.so.6"}
	verNeeds := []elfimg.VerNeed{{File: "libc.so.6", Versions: demand}}
	img, err := elfimg.Build(elfimg.Spec{
		Class:    site.Arch.Class,
		Machine:  site.Arch.Machine,
		Type:     elfimg.TypeExec,
		Interp:   interpFor(site),
		Needed:   needed,
		VerNeeds: verNeeds,
		Comments: buildComments(comp, site),
		TextSize: 4 << 10,
	})
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Name:  fmt.Sprintf("hello-serial.%s", site.Name),
		Bytes: img,
		Truth: GroundTruth{
			Serial: true, Hello: true, BuildSite: site.Name,
			CompilerFamily: comp.Family.Key(), CompilerVersion: comp.Version,
			FeatureLevel: comp.FeatureLevel(site.Arch.FeatureLevel),
			BuildGlibc:   site.Glibc.Clone(),
		},
	}, nil
}

// mpiImportsFor returns the MPI entry points a binary of the given feature
// level imports (unversioned — the MPI libraries of this era did not use
// symbol versioning, which is exactly why ABI drift went undetected).
func mpiImportsFor(mpiLevel int) []elfimg.ImportedSymbol {
	syms := []elfimg.ImportedSymbol{
		{Name: "MPI_Init"}, {Name: "MPI_Comm_rank"}, {Name: "MPI_Comm_size"},
		{Name: "MPI_Send"}, {Name: "MPI_Recv"}, {Name: "MPI_Finalize"},
	}
	if mpiLevel >= 2 {
		syms = append(syms, elfimg.ImportedSymbol{Name: "MPI_Allreduce"},
			elfimg.ImportedSymbol{Name: "MPI_Bcast"}, elfimg.ImportedSymbol{Name: "MPI_Alltoall"})
	}
	if mpiLevel >= 3 {
		syms = append(syms, elfimg.ImportedSymbol{Name: "MPI_Put"},
			elfimg.ImportedSymbol{Name: "MPI_Win_create"},
			elfimg.ImportedSymbol{Name: "MPI_Type_create_struct"})
	}
	return syms
}

// linkSets assembles the NEEDED list, version references, symbol imports,
// and hidden runtime-epoch requirements for a binary: MPI libraries first
// (as the wrappers emit them), then compiler runtimes, then the universal
// base.
func linkSets(lang workload.Language, glibcDemand []string, comp Compiler, rel *mpistack.Release, interconnect string, mpiLevel int) ([]string, []elfimg.VerNeed, []elfimg.ImportedSymbol, map[string]int) {
	var needed []string
	var verNeeds []elfimg.VerNeed
	var imports []elfimg.ImportedSymbol
	runtimeEpochs := map[string]int{}

	if rel != nil {
		needed = append(needed, rel.MPISonames(lang.UsesFortran(), interconnect)...)
		imports = append(imports, mpiImportsFor(mpiLevel)...)
	}
	for _, dep := range comp.RuntimeDeps(lang) {
		needed = append(needed, dep.Soname)
		if len(dep.Versions) > 0 {
			verNeeds = append(verNeeds, elfimg.VerNeed{File: dep.Soname, Versions: dep.Versions})
		}
		version := ""
		if len(dep.Versions) > 0 {
			version = dep.Versions[len(dep.Versions)-1]
		}
		for _, sym := range dep.Symbols {
			im := elfimg.ImportedSymbol{Name: sym}
			if version != "" {
				im.Version, im.Library = version, dep.Soname
			}
			imports = append(imports, im)
		}
		if dep.Epoch > 0 {
			runtimeEpochs[dep.Soname] = dep.Epoch
		}
	}
	needed = append(needed, baseDeps()...)
	if len(glibcDemand) > 0 {
		verNeeds = append(verNeeds, elfimg.VerNeed{File: "libc.so.6", Versions: glibcDemand})
		// libm references track libc.
		verNeeds = append(verNeeds, elfimg.VerNeed{File: "libm.so.6", Versions: glibcDemand[:1]})
		base, top := glibcDemand[0], glibcDemand[len(glibcDemand)-1]
		imports = append(imports,
			elfimg.ImportedSymbol{Name: "printf", Version: base, Library: "libc.so.6"},
			elfimg.ImportedSymbol{Name: "exit", Version: base, Library: "libc.so.6"},
			elfimg.ImportedSymbol{Name: "memcpy", Version: top, Library: "libc.so.6"},
			elfimg.ImportedSymbol{Name: "sqrt", Version: glibcDemand[0], Library: "libm.so.6"},
		)
	}
	return needed, verNeeds, imports, runtimeEpochs
}

func interpFor(site *sitemodel.Site) string {
	if site.Arch.Class == elfimg.Class32 {
		return "/lib/ld-linux.so.2"
	}
	return "/lib64/ld-linux-x86-64.so.2"
}

func buildComments(comp Compiler, site *sitemodel.Site) []string {
	return []string{
		comp.CommentString(),
		fmt.Sprintf("built on %s %s (glibc %s)", site.OS.Distro, site.OS.Version, site.Glibc),
	}
}
