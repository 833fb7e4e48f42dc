// Package testbed constructs the paper's evaluation environment: the five
// computing sites of Table II (Ranger, Forge, Blacklight, India, Fir) with
// their operating systems, C library versions, compilers, interconnects,
// user-environment management tools, and MPI stack matrices; plus the
// ground-truth failure knobs (CPU feature levels, broken stack
// combinations, system-error rates) that reproduce the paper's observed
// failure distribution.
package testbed

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"feam/internal/batch"
	"feam/internal/elfimg"
	"feam/internal/envmgmt"
	"feam/internal/libver"
	"feam/internal/mpistack"
	"feam/internal/sitemodel"
	"feam/internal/toolchain"
)

// StackSpec is one row of a site's MPI stack matrix.
type StackSpec struct {
	Impl      mpistack.Impl
	Version   string
	Compilers []toolchain.Family
	// Broken marks the misconfigured combinations (per compiler family,
	// keyed by family) — stacks advertised by the site that cannot run any
	// program.
	Broken map[toolchain.Family]bool
}

// SiteSpec describes one Table II site.
type SiteSpec struct {
	Name        string
	Description string
	SystemType  string
	Cores       int

	// ISA is the hardware architecture: "x86_64" (the default and the only
	// one Table II uses), "i686", "ppc64", or "ppc". Scenario fleets use
	// the others to exercise the ISA determinant's failure path.
	ISA string

	Distro      string
	OSVersion   string
	Kernel      string
	ReleaseFile string

	Glibc   libver.Version
	CPUName string
	// FeatureLevel is the CPU ISA extension level (ground truth).
	FeatureLevel int

	Compilers []toolchain.Compiler
	// EnvTool is "modules", "softenv", or "" (path search only).
	EnvTool string
	// Infiniband controls whether IB transport libraries are installed.
	Infiniband bool
	// Manager is the batch system flavor.
	Manager batch.Manager
	// SysErrRate is the persistent system-error probability (ground
	// truth), scaled per suite by the execution simulator.
	SysErrRate float64
	// CompatFortranLibs installs the distribution's compatibility Fortran
	// runtime (libg2c.so.0, the compat-libf2c package) so binaries from
	// GCC-3.4-era sites run without resolution.
	CompatFortranLibs bool

	Stacks []StackSpec
}

// DefaultSpecs returns the Table II matrix. Versions, operating systems,
// glibc releases, compilers and stack combinations follow the paper; CPU
// feature levels, broken-stack choices, and system-error rates are the
// simulation's ground-truth calibration (documented in DESIGN.md).
func DefaultSpecs() []SiteSpec {
	g, i, p := toolchain.GNU, toolchain.Intel, toolchain.PGI
	return []SiteSpec{
		{
			Name: "ranger", Description: "XSEDE Ranger, Texas Advanced Computing Center",
			SystemType: "MPP", Cores: 62976,
			Distro: "CentOS", OSVersion: "4.9", Kernel: "2.6.9-89.ELsmp", ReleaseFile: "/etc/redhat-release",
			Glibc:   libver.V(2, 3, 4),
			CPUName: "AMD Opteron 8356 (Barcelona)", FeatureLevel: 2,
			Compilers: []toolchain.Compiler{
				{Family: g, Version: "3.4.6"},
				{Family: i, Version: "10.1"},
				{Family: p, Version: "7.2"},
			},
			EnvTool: "modules", Infiniband: true, Manager: batch.SGE,
			SysErrRate: 0.04,
			Stacks: []StackSpec{
				{Impl: mpistack.OpenMPI, Version: "1.3", Compilers: []toolchain.Family{i, g, p},
					Broken: map[toolchain.Family]bool{p: true}},
				{Impl: mpistack.MVAPICH2, Version: "1.2", Compilers: []toolchain.Family{i, g, p}},
			},
		},
		{
			Name: "forge", Description: "XSEDE Forge, National Center for Supercomputing Applications",
			SystemType: "Hybrid", Cores: 576,
			Distro: "Red Hat Enterprise Linux Server", OSVersion: "6.1", Kernel: "2.6.32-131.el6", ReleaseFile: "/etc/redhat-release",
			Glibc:   libver.V(2, 12),
			CPUName: "AMD Opteron 6136 (Magny-Cours)", FeatureLevel: 3,
			Compilers: []toolchain.Compiler{
				{Family: g, Version: "4.4.5"},
				{Family: i, Version: "12"},
			},
			EnvTool: "modules", Infiniband: true, Manager: batch.PBS,
			SysErrRate:        0.04,
			CompatFortranLibs: true,
			Stacks: []StackSpec{
				{Impl: mpistack.OpenMPI, Version: "1.4", Compilers: []toolchain.Family{g, i}},
				{Impl: mpistack.MVAPICH2, Version: "1.7rc1", Compilers: []toolchain.Family{i},
					Broken: map[toolchain.Family]bool{i: true}},
			},
		},
		{
			Name: "blacklight", Description: "XSEDE Blacklight, Pittsburgh Supercomputing Center",
			SystemType: "SMP", Cores: 4096,
			Distro: "SUSE Linux Enterprise Server", OSVersion: "11", Kernel: "2.6.32.13-0.5", ReleaseFile: "/etc/SuSE-release",
			Glibc:   libver.V(2, 11, 1),
			CPUName: "Intel Xeon X7560 (Nehalem-EX)", FeatureLevel: 2,
			Compilers: []toolchain.Compiler{
				{Family: g, Version: "4.4.3"},
				{Family: i, Version: "11.1"},
			},
			EnvTool: "softenv", Infiniband: false, Manager: batch.PBS,
			SysErrRate:        0.03,
			CompatFortranLibs: true,
			Stacks: []StackSpec{
				{Impl: mpistack.OpenMPI, Version: "1.4", Compilers: []toolchain.Family{i, g}},
			},
		},
		{
			Name: "india", Description: "FutureGrid India, Indiana University",
			SystemType: "Cluster", Cores: 920,
			Distro: "Red Hat Enterprise Linux Server", OSVersion: "5.6", Kernel: "2.6.18-238.el5", ReleaseFile: "/etc/redhat-release",
			Glibc:   libver.V(2, 5),
			CPUName: "Intel Xeon X5570 (Nehalem)", FeatureLevel: 2,
			Compilers: []toolchain.Compiler{
				{Family: g, Version: "4.1.2"},
				{Family: i, Version: "11.1"},
			},
			EnvTool: "modules", Infiniband: true, Manager: batch.PBS,
			SysErrRate: 0.05,
			Stacks: []StackSpec{
				{Impl: mpistack.OpenMPI, Version: "1.4", Compilers: []toolchain.Family{i, g}},
				{Impl: mpistack.MVAPICH2, Version: "1.7a2", Compilers: []toolchain.Family{i, g}},
				{Impl: mpistack.MPICH2, Version: "1.4", Compilers: []toolchain.Family{i, g}},
			},
		},
		{
			Name: "fir", Description: "ITS Fir, University of Virginia",
			SystemType: "Cluster", Cores: 1496,
			Distro: "CentOS", OSVersion: "5.6", Kernel: "2.6.18-238.el5", ReleaseFile: "/etc/redhat-release",
			Glibc:   libver.V(2, 5),
			CPUName: "Intel Xeon E5620 (Westmere)", FeatureLevel: 2,
			Compilers: []toolchain.Compiler{
				{Family: g, Version: "4.1.2"},
				{Family: i, Version: "12"},
				{Family: p, Version: "11.5"},
			},
			EnvTool: "", Infiniband: true, Manager: batch.SLURM,
			SysErrRate: 0.04,
			Stacks: []StackSpec{
				{Impl: mpistack.OpenMPI, Version: "1.4", Compilers: []toolchain.Family{i, g, p}},
				{Impl: mpistack.MVAPICH2, Version: "1.7a", Compilers: []toolchain.Family{i, g, p},
					Broken: map[toolchain.Family]bool{p: true}},
				{Impl: mpistack.MPICH2, Version: "1.3", Compilers: []toolchain.Family{i, g, p}},
			},
		},
	}
}

// Testbed is the built five-site environment.
type Testbed struct {
	Sites  []*sitemodel.Site
	ByName map[string]*sitemodel.Site
	Specs  map[string]SiteSpec
	// Clusters holds each site's batch system.
	Clusters map[string]*batch.Cluster
}

// Build materializes the default Table II testbed.
func Build() (*Testbed, error) { return BuildFrom(DefaultSpecs()) }

// BuildFrom materializes sites from explicit specs. The sites share one
// store of library images, so a library image that several sites install
// is built and held once for the whole fleet. Sites are built on up to
// GOMAXPROCS workers, each site by one of them, and assembled in spec
// order; when several fail, the error of the first in spec order is
// returned.
func BuildFrom(specs []SiteSpec) (*Testbed, error) {
	images := &sitemodel.ImageStore{}
	sites := make([]*sitemodel.Site, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				sites[i], errs[i] = buildSite(specs[i], images)
			}
		}()
	}
	wg.Wait()

	tb := &Testbed{
		ByName:   map[string]*sitemodel.Site{},
		Specs:    map[string]SiteSpec{},
		Clusters: map[string]*batch.Cluster{},
	}
	for i, spec := range specs {
		if errs[i] != nil {
			return nil, fmt.Errorf("testbed: %s: %v", spec.Name, errs[i])
		}
		tb.Sites = append(tb.Sites, sites[i])
		tb.ByName[spec.Name] = sites[i]
		tb.Specs[spec.Name] = spec
		tb.Clusters[spec.Name] = batch.NewCluster(spec.Manager)
	}
	return tb, nil
}

// ArchForISA maps an ISA name to its machine/class pair; unknown names
// fall back to x86_64.
func ArchForISA(isa string) (elfimg.Machine, elfimg.Class) {
	switch isa {
	case "i686":
		return elfimg.EM386, elfimg.Class32
	case "ppc":
		return elfimg.EMPPC, elfimg.Class32
	case "ppc64":
		return elfimg.EMPPC64, elfimg.Class64
	default:
		return elfimg.EMX8664, elfimg.Class64
	}
}

func buildSite(spec SiteSpec, images *sitemodel.ImageStore) (*sitemodel.Site, error) {
	machine, class := ArchForISA(spec.ISA)
	site := sitemodel.New(spec.Name,
		sitemodel.Arch{
			Machine: machine, Class: class,
			CPUName: spec.CPUName, FeatureLevel: spec.FeatureLevel,
		},
		sitemodel.OSInfo{
			Distro: spec.Distro, Version: spec.OSVersion,
			Kernel: spec.Kernel, ReleaseFile: spec.ReleaseFile,
		},
		spec.Glibc)
	site.Description = spec.Description
	site.SystemType = spec.SystemType
	site.Cores = spec.Cores
	site.SysErrRate = spec.SysErrRate
	site.Images = images
	site.Interconnects = []string{"ethernet"}
	if spec.Infiniband {
		site.Interconnects = append(site.Interconnects, "infiniband")
	}

	if err := site.InstallCLibrary(); err != nil {
		return nil, err
	}
	if spec.Infiniband {
		if err := installIBLibraries(site); err != nil {
			return nil, err
		}
	}
	for _, comp := range spec.Compilers {
		ci := &toolchain.CompilerInstall{Compiler: comp}
		if err := ci.Materialize(site); err != nil {
			return nil, err
		}
	}
	if spec.CompatFortranLibs {
		// compat-libf2c: built for compatibility, so it references only the
		// glibc baseline and runs on any older system too.
		base := libver.GlibcSymbolVersions(site.Glibc)[:1]
		if _, err := site.InstallLibrary("/usr/lib64", sitemodel.Library{
			FileName: "libg2c.so.0.0.0", Soname: "libg2c.so.0",
			Needed:   []string{"libm.so.6", "libc.so.6"},
			VerNeeds: []elfimg.VerNeed{{File: "libc.so.6", Versions: base}},
			Comments: []string{"compat-libf2c"}, TextSize: 200 << 10,
		}); err != nil {
			return nil, err
		}
	}

	interconnect := "ethernet"
	if spec.Infiniband {
		interconnect = "infiniband"
	}
	var modules *envmgmt.Modules
	var softenv *envmgmt.SoftEnv
	switch spec.EnvTool {
	case "modules":
		modules = envmgmt.NewModules(site)
	case "softenv":
		softenv = envmgmt.NewSoftEnv(site)
	}
	for _, ss := range spec.Stacks {
		for _, fam := range ss.Compilers {
			comp, ok := findCompiler(spec.Compilers, fam)
			if !ok {
				return nil, fmt.Errorf("stack %s-%s wants %s compiler, not installed",
					ss.Impl.Key(), ss.Version, fam.Key())
			}
			ic := interconnect
			if ss.Impl == mpistack.MPICH2 {
				ic = "ethernet" // MPICH2 builds in the testbed are TCP-only
			}
			inst := &mpistack.Install{
				Release:         mpistack.Release{Impl: ss.Impl, Version: ss.Version},
				CompilerFamily:  fam.Key(),
				CompilerVersion: comp.Version,
				Interconnect:    ic,
				Broken:          ss.Broken[fam],
				WithFortran:     true,
			}
			rec, err := inst.Materialize(site)
			if err != nil {
				return nil, err
			}
			if modules != nil {
				body := fmt.Sprintf("module-whatis \"%s %s with %s compilers\"\nprepend-path PATH %s/bin\nprepend-path LD_LIBRARY_PATH %s/lib\nsetenv MPI_HOME %s\n",
					ss.Impl, ss.Version, fam.Key(), rec.Prefix, rec.Prefix, rec.Prefix)
				if err := modules.AddModulefile(rec.Key, body); err != nil {
					return nil, err
				}
			}
			if softenv != nil {
				if err := softenv.AddKey("+"+rec.Key,
					"PATH+="+rec.Prefix+"/bin", "LD_LIBRARY_PATH+="+rec.Prefix+"/lib"); err != nil {
					return nil, err
				}
			}
		}
	}
	return site, nil
}

func findCompiler(comps []toolchain.Compiler, fam toolchain.Family) (toolchain.Compiler, bool) {
	for _, c := range comps {
		if c.Family == fam {
			return c, true
		}
	}
	return toolchain.Compiler{}, false
}

// installIBLibraries places the InfiniBand transport libraries in the
// system directories of IB-equipped sites.
func installIBLibraries(site *sitemodel.Site) error {
	base := libver.GlibcSymbolVersions(site.Glibc)[:1]
	libcNeed := []elfimg.VerNeed{{File: "libc.so.6", Versions: base}}
	for _, lib := range []sitemodel.Library{
		{FileName: "libibverbs.so.1.0.0", Needed: []string{"libdl.so.2", "libpthread.so.0", "libc.so.6"}, VerNeeds: libcNeed, TextSize: 80 << 10},
		{FileName: "libibumad.so.3.0.2", Needed: []string{"libc.so.6"}, VerNeeds: libcNeed, TextSize: 40 << 10},
		{FileName: "librdmacm.so.1.0.0", Needed: []string{"libibverbs.so.1", "libc.so.6"}, VerNeeds: libcNeed, TextSize: 60 << 10},
	} {
		if _, err := site.InstallLibrary("/usr/lib64", lib); err != nil {
			return err
		}
	}
	return nil
}

// ActivateStack loads a stack's environment at a site using its
// user-environment management tool when present, or manual path exports
// otherwise — the same action a user (or FEAM's configuration script)
// performs before launching.
func ActivateStack(site *sitemodel.Site, key string) error {
	rec := site.FindStack(key)
	if rec == nil {
		return fmt.Errorf("testbed: no stack %q at %s", key, site.Name)
	}
	switch tool := site.EnvTool().(type) {
	case *envmgmt.Modules:
		return tool.Load(key)
	case *envmgmt.SoftEnv:
		return tool.Load("+" + key)
	default:
		envmgmt.PrependPathEntry(site, "PATH", rec.Prefix+"/bin")
		envmgmt.PrependPathEntry(site, "LD_LIBRARY_PATH", rec.Prefix+"/lib")
		return nil
	}
}
