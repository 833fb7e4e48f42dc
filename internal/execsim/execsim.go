// Package execsim is the ground-truth execution simulator: given a compiled
// artifact, a target site, and a selected MPI stack, it decides whether the
// program would actually run, reproducing the failure taxonomy the paper
// observed. The checks run in the order a real launch would encounter them:
//
//  1. the kernel rejects wrong-ISA/wrong-class images ("cannot execute
//     binary file"),
//  2. the dynamic loader resolves the dependency closure (missing shared
//     libraries, unsatisfied GLIBC_*/GLIBCXX_* symbol versions),
//  3. the MPI launch fails when the selected stack's implementation differs
//     from the one linked into the binary, or when the stack combination is
//     misconfigured site-wide,
//  4. hidden ABI-epoch mismatches in compiler runtimes or MPI libraries
//     crash the process,
//  5. CPU feature-level shortfalls trap with floating-point errors,
//  6. stochastic-but-deterministic system errors (daemon spawning,
//     communication timeouts) kill jobs independent of the binary, subject
//     to the paper's five spaced retry attempts.
//
// FEAM's prediction model never calls into the ground-truth attributes used
// by steps 4-6; it may only run *programs* (hello-world artifacts) through
// this simulator, exactly as the real framework runs test programs on real
// sites.
package execsim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"feam/internal/ldso"
	"feam/internal/libver"
	"feam/internal/sitemodel"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

// FailureClass buckets execution outcomes.
type FailureClass int

const (
	OK FailureClass = iota
	FailISA
	FailMissingLib
	FailGlibcVersion
	FailSymbolVersion
	FailMPIMismatch
	FailStackBroken
	FailABI
	FailFPE
	FailSystem
)

func (c FailureClass) String() string {
	switch c {
	case OK:
		return "success"
	case FailISA:
		return "incompatible ISA"
	case FailMissingLib:
		return "missing shared library"
	case FailGlibcVersion:
		return "C library version"
	case FailSymbolVersion:
		return "symbol version (ABI)"
	case FailMPIMismatch:
		return "MPI implementation mismatch"
	case FailStackBroken:
		return "MPI stack not functioning"
	case FailABI:
		return "shared library ABI incompatibility"
	case FailFPE:
		return "floating point error"
	case FailSystem:
		return "system error"
	default:
		return fmt.Sprintf("FailureClass(%d)", int(c))
	}
}

// Result is one execution outcome.
type Result struct {
	Class  FailureClass
	Detail string
	// Attempts is how many launches were made (retry policy).
	Attempts int
	// Resolution is the loader evidence (nil when the ISA check failed).
	Resolution *ldso.Resolution
	// RunTime is the simulated wall-clock of the final attempt.
	RunTime time.Duration

	// transient marks a system error a retry might dodge.
	transient bool
}

// Success reports a clean run.
func (r Result) Success() bool { return r.Class == OK }

// Transient reports whether the failure was a transient system error a
// further retry might dodge (always false on success).
func (r Result) Transient() bool { return r.transient }

// Request describes a launch.
type Request struct {
	// Art is the program to run.
	Art *toolchain.Artifact
	// Site is where it runs.
	Site *sitemodel.Site
	// Stack is the selected MPI stack record (nil for serial programs; its
	// environment must already be loaded into the site env by the caller,
	// exactly as `module load` precedes `mpiexec` in real life).
	Stack *sitemodel.StackRecord
	// ExtraLibDirs are additional loader search directories (FEAM's staged
	// library copies).
	ExtraLibDirs []string
	// Tasks is the MPI task count (informational; defaults to 4).
	Tasks int
}

// Simulator holds the deterministic randomness for system errors.
type Simulator struct {
	// Seed drives the deterministic hash "randomness".
	Seed int64
	// MaxAttempts is the retry budget (the paper used five).
	MaxAttempts int
	// TransientRate is the per-attempt probability of a transient system
	// error that a retry can dodge.
	TransientRate float64
	// SuiteSysErrWeight scales a site's persistent system-error rate per
	// suite (long-running SPEC jobs hit more timeouts than NPB kernels).
	SuiteSysErrWeight map[workload.Suite]float64
}

// NewSimulator returns a simulator with the paper's retry policy.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{
		Seed:          seed,
		MaxAttempts:   5,
		TransientRate: 0.08,
		SuiteSysErrWeight: map[workload.Suite]float64{
			workload.NPB:     0.4,
			workload.SPECMPI: 1.6,
		},
	}
}

// hashUnit maps a tuple of strings deterministically to [0, 1).
func (s *Simulator) hashUnit(parts ...string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", s.Seed)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return float64(h.Sum64()%1e9) / 1e9
}

// Run launches the artifact with the retry policy and returns the final
// outcome.
func (s *Simulator) Run(req Request) Result {
	maxAttempts := s.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var res Result
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res = s.runOnce(req, attempt)
		res.Attempts = attempt
		if res.Class != FailSystem || !res.transient {
			return res
		}
	}
	return res
}

// runOnce performs a single launch attempt.
func (s *Simulator) runOnce(req Request, attempt int) (res Result) {
	art, site := req.Art, req.Site
	res.RunTime = runTimeFor(art)

	// 1. ISA / word size.
	f, err := art.ELF()
	if err != nil {
		res.Class = FailISA
		res.Detail = "not an executable image: " + err.Error()
		return res
	}
	if f.Machine != site.Arch.Machine || f.Class != site.Arch.Class {
		res.Class = FailISA
		res.Detail = fmt.Sprintf("cannot execute %s binary on %s host", f.Format(), site.UnameMachine())
		return res
	}

	// 2. Dynamic loading.
	resolution, err := ldso.Resolve(f, art.Name, ldso.Options{
		FS:              site.FS(),
		LibraryPath:     splitPath(site.Getenv("LD_LIBRARY_PATH")),
		DefaultDirs:     site.DefaultLibDirs(),
		ExtraSearchDirs: req.ExtraLibDirs,
	})
	if err != nil {
		res.Class = FailISA
		res.Detail = err.Error()
		return res
	}
	res.Resolution = resolution
	if len(resolution.Missing) > 0 {
		res.Class = FailMissingLib
		res.Detail = resolution.Missing[0].String()
		return res
	}
	if len(resolution.VersionErrors) > 0 {
		ve := resolution.VersionErrors[0]
		if strings.HasPrefix(ve.Version, "GLIBC_") && libver.IsCLibraryName(ve.Library) {
			res.Class = FailGlibcVersion
		} else {
			res.Class = FailSymbolVersion
		}
		res.Detail = ve.String()
		return res
	}

	// 3. MPI launch.
	if art.Truth.Impl != "" {
		if req.Stack == nil {
			res.Class = FailMPIMismatch
			res.Detail = "no MPI stack selected for launch"
			return res
		}
		if req.Stack.Broken {
			res.Class = FailStackBroken
			res.Detail = fmt.Sprintf("stack %s is misconfigured; mpiexec cannot start", req.Stack.Key)
			return res
		}
		if req.Stack.Impl != art.Truth.Impl {
			res.Class = FailMPIMismatch
			res.Detail = fmt.Sprintf("binary linked against %s but stack %s selected",
				art.Truth.Impl, req.Stack.Key)
			return res
		}
	}

	// 4. Hidden ABI epochs: compiler runtimes, then the MPI library itself.
	for soname, required := range art.Truth.RuntimeEpochs {
		obj, ok := resolution.Objects[soname]
		if !ok {
			continue // unresolved cases already handled above
		}
		have := site.LibraryABIEpoch(obj.Path)
		if have != 0 && have < required {
			res.Class = FailABI
			res.Detail = fmt.Sprintf("%s: runtime ABI %d older than required %d (loaded from %s)",
				soname, have, required, obj.Path)
			return res
		}
	}
	if art.Truth.Impl != "" && art.Truth.MPILevel >= 3 {
		if obj := mpiObject(resolution); obj != nil {
			have := site.LibraryABIEpoch(obj.Path)
			if have != 0 && have < art.Truth.MPIABIEpoch {
				res.Class = FailABI
				res.Detail = fmt.Sprintf("%s: MPI ABI generation %d older than binary's %d",
					obj.Name, have, art.Truth.MPIABIEpoch)
				return res
			}
		}
	}

	// 5. CPU feature level.
	if art.Truth.FeatureLevel > site.Arch.FeatureLevel {
		res.Class = FailFPE
		res.Detail = fmt.Sprintf("floating point exception: code compiled for feature level %d, CPU provides %d",
			art.Truth.FeatureLevel, site.Arch.FeatureLevel)
		return res
	}

	// 6. System errors. Serial and hello-world probes are so short they
	// dodge the persistent failure modes of full application runs.
	if art.Truth.Impl != "" && !art.Truth.Hello {
		weight := 1.0
		if w, ok := s.SuiteSysErrWeight[art.Truth.Suite]; ok {
			weight = w
		}
		persistent := site.SysErrRate * weight
		if s.hashUnit("persistent", art.Name, site.Name) < persistent {
			res.Class = FailSystem
			res.Detail = "mpd daemon spawn failure on allocated nodes"
			return res
		}
		if s.hashUnit("transient", art.Name, site.Name, fmt.Sprint(attempt)) < s.TransientRate {
			res.Class = FailSystem
			res.Detail = "communication timeout (transient overload)"
			res.transient = true
			return res
		}
	}

	res.Class = OK
	res.Detail = "clean exit"
	return res
}

// mpiObject finds the loaded MPI library in a resolution.
func mpiObject(res *ldso.Resolution) *ldso.Object {
	for _, name := range res.Order {
		sn, err := libver.ParseSoname(name)
		if err != nil {
			continue
		}
		if sn.Stem == "mpi" || sn.Stem == "mpich" {
			return res.Objects[name]
		}
	}
	return nil
}

func splitPath(v string) []string {
	if v == "" {
		return nil
	}
	var out []string
	for _, d := range strings.Split(v, ":") {
		if d != "" {
			out = append(out, d)
		}
	}
	return out
}

// runTimeFor estimates the simulated execution duration.
func runTimeFor(art *toolchain.Artifact) time.Duration {
	switch {
	case art.Truth.Hello || art.Truth.Serial:
		return 5 * time.Second
	case art.Truth.Suite == workload.SPECMPI:
		return 12 * time.Minute
	default:
		return 3 * time.Minute
	}
}

// String renders "success" or "<class>: <detail>".
func (r Result) String() string {
	if r.Success() {
		return "success"
	}
	return r.Class.String() + ": " + r.Detail
}
