package feam

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"feam/internal/abicheck"
	"feam/internal/elfimg"
	"feam/internal/envmgmt"
	"feam/internal/fault"
	"feam/internal/obs"
	"feam/internal/sitemodel"
	"feam/internal/toolchain"
	"feam/internal/vfs"
)

// EvalOptions configures a Target Evaluation Component run.
type EvalOptions struct {
	// Bundle enables the extended compatibility tests and the resolution
	// model (nil = basic prediction).
	Bundle *Bundle
	// Runner opens the probe sessions that execute probe programs;
	// without it, stack usability tests are skipped and stack presence
	// alone decides the MPI determinant.
	Runner fault.Runner
	// Resolve applies the resolution model to missing shared libraries
	// (requires Bundle).
	Resolve bool
	// StageDir is where library copies are staged on the target
	// filesystem; derived from the binary content hash and site name when
	// empty.
	StageDir string
	// Config supplies launch-command overrides.
	Config *Config
	// ShallowResolution disables the recursive part of the resolution
	// model: copies are staged without checking or resolving their own
	// dependencies. This exists for the ablation study — the paper's model
	// is recursive (§IV) — and is never set in normal operation.
	ShallowResolution bool
	// Evaluators selects the determinant registry for this evaluation
	// (nil = DefaultEvaluators, the paper's ladder). The ablation study
	// uses this to disable or reconfigure individual determinants.
	Evaluators []DeterminantEvaluator
}

// Prediction is the TEC's verdict for one binary at one target site.
type Prediction struct {
	// Binary and Site identify the evaluation.
	Binary string
	Site   string
	// Extended records whether source-phase information was available.
	Extended bool

	// Ready is the headline answer: is the site ready to execute the
	// binary without recompilation?
	Ready bool
	// Determinants holds the per-question outcomes.
	Determinants map[Determinant]DeterminantResult
	// Reasons lists human-readable failure explanations.
	Reasons []string

	// SelectedStack is the compatible, functioning stack the TEC chose.
	SelectedStack *StackInfo
	// MissingLibs lists shared libraries absent at the target before
	// resolution.
	MissingLibs []string
	// ResolvedLibs lists libraries fixed by staging bundle copies;
	// UnresolvedLibs maps still-missing names to the reason resolution
	// could not use a copy.
	ResolvedLibs   []string
	UnresolvedLibs map[string]string
	// StageDir is where resolved copies were placed.
	StageDir string

	// ConfigScript is the emitted site-configuration script that sets up
	// the environment for execution.
	ConfigScript string

	// ABI is the symbol-resolution report when the ABI determinant ran (an
	// ABIEvaluator in EvalOptions.Evaluators); nil under the paper's
	// default ladder.
	ABI *abicheck.Report
}

// ExtraLibDirs returns the loader directories execution must add (the
// staged copies), if any.
func (p *Prediction) ExtraLibDirs() []string {
	if len(p.ResolvedLibs) == 0 {
		return nil
	}
	return []string{p.StageDir}
}

// StackKey returns the selected stack's key, or "".
func (p *Prediction) StackKey() string {
	if p.SelectedStack == nil {
		return ""
	}
	return p.SelectedStack.Key
}

func (p *Prediction) fail(d Determinant, reason string) {
	p.Determinants[d] = DeterminantResult{Outcome: Fail, Detail: reason}
	p.Reasons = append(p.Reasons, d.String()+": "+reason)
	p.Ready = false
}

func (p *Prediction) pass(d Determinant, detail string) {
	p.Determinants[d] = DeterminantResult{Outcome: Pass, Detail: detail}
}

// Evaluate runs the Target Evaluation Component through the package-level
// default engine. See Engine.Evaluate for the semantics; new code that
// evaluates repeatedly should hold its own Engine to share the caches
// deliberately.
func Evaluate(desc *BinaryDescription, appBytes []byte, env *EnvironmentDescription, site *sitemodel.Site, opts EvalOptions) (*Prediction, error) {
	return DefaultEngine().Evaluate(context.Background(), desc, appBytes, env, site, opts)
}

// interpFor returns the conventional program-interpreter path for an
// ISA/class pair — the value a binary built for that target would carry
// in PT_INTERP.
func interpFor(machine elfimg.Machine, bits int) string {
	switch machine {
	case elfimg.EM386:
		return "/lib/ld-linux.so.2"
	case elfimg.EMPPC:
		return "/lib/ld.so.1"
	case elfimg.EMPPC64:
		return "/lib64/ld64.so.1"
	case elfimg.EMAARCH64:
		return "/lib/ld-linux-aarch64.so.1"
	case elfimg.EMX8664:
		return "/lib64/ld-linux-x86-64.so.2"
	}
	// Unknown machine: fall back on the class-conventional glibc layout.
	if bits == 32 {
		return "/lib/ld-linux.so.2"
	}
	return "/lib64/ld-linux-x86-64.so.2"
}

// syntheticImage reconstructs a loader-probe ELF image from a description
// (used when the application binary is not present at the target site).
// The interpreter path follows the description's ISA — a synthetic probe
// for a 32-bit or non-x86 binary must not claim the x86-64 loader.
func syntheticImage(desc *BinaryDescription) ([]byte, error) {
	cls := elfimg.Class64
	if desc.Bits == 32 {
		cls = elfimg.Class32
	}
	return elfimg.Build(elfimg.Spec{
		Class:    cls,
		Machine:  desc.ISA,
		Type:     elfimg.TypeExec,
		Interp:   interpFor(desc.ISA, desc.Bits),
		Needed:   desc.Needed,
		VerNeeds: desc.VerNeeds,
	})
}

// selectStack finds a compatible, functioning MPI stack. Candidates share
// the binary's implementation; those matching the build compiler family are
// preferred. Each candidate is validated with probe programs: a natively
// compiled hello world when the site has the stack's compiler, plus the
// bundle's source-site hello world for extended cross-compatibility tests.
func selectStack(ec *EvalContext, presenceOnly bool) (*StackInfo, string) {
	desc, env := ec.Desc, ec.Env
	candidates := env.FindStacks(desc.MPIImpl)
	if len(candidates) == 0 {
		return nil, fmt.Sprintf("no %s installation available at site", desc.MPIImpl)
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		pi := compilerFamilyOf(desc.BuildComment) == candidates[i].CompilerFamily
		pj := compilerFamilyOf(desc.BuildComment) == candidates[j].CompilerFamily
		return pi && !pj
	})
	var failures []string
	for i := range candidates {
		cand := &candidates[i]
		ok, detail := testStack(ec, cand, presenceOnly)
		if ok {
			return cand, fmt.Sprintf("stack %s selected (%s)", cand.Key, detail)
		}
		failures = append(failures, fmt.Sprintf("%s: %s", cand.Key, detail))
	}
	return nil, "no functioning compatible stack: " + strings.Join(failures, "; ")
}

// compilerFamilyOf extracts the compiler family from a .comment provenance
// string.
func compilerFamilyOf(comment string) string {
	switch {
	case strings.HasPrefix(comment, "GCC:"):
		return "gnu"
	case strings.HasPrefix(comment, "Intel"):
		return "intel"
	case strings.HasPrefix(comment, "PGI"):
		return "pgi"
	default:
		return ""
	}
}

// runProbe executes a probe program through an open probe session, under
// the engine's retry policy: transient failures (batch-system wobble,
// injected transient faults) are retried with backoff; permanent failures
// and successes return immediately. Every attempt emits one probe span;
// retries are events on the enclosing span, carrying the nominal backoff
// about to be slept. The session classifies its own failures.
func runProbe(ec *EvalContext, pb fault.ProbeBatch, art *toolchain.Artifact, stackKey string, extraLibDirs []string) fault.ProbeResult {
	site := ec.Site
	policy := ec.Engine.RetryPolicy()
	var res fault.ProbeResult
	for attempt := 1; ; attempt++ {
		sp := ec.Engine.tracer.Start(obs.OpProbe,
			obs.WithParent(ec.span), obs.WithSite(site.Name),
			obs.WithAttr(obs.AttrStack, stackKey),
			obs.WithAttr(obs.AttrAttempt, strconv.Itoa(attempt)))
		res = pb.RunProbe(ec.Context, art, extraLibDirs)
		sp.SetAttr(obs.AttrSuccess, strconv.FormatBool(res.Success))
		if !res.Success {
			sp.SetAttr(obs.AttrDetail, res.Detail)
		}
		sp.End(nil)
		if res.Success || !res.Transient || attempt >= policy.Attempts() {
			return res
		}
		backoff := policy.Backoff(attempt)
		ec.span.Event(obs.EvProbeRetry,
			obs.AttrStack, stackKey,
			obs.AttrAttempt, strconv.Itoa(attempt),
			obs.AttrBackoffNS, strconv.FormatInt(int64(backoff), 10))
		if fault.Sleep(ec.Context, backoff) != nil {
			return res
		}
	}
}

// testStack checks that a candidate stack actually functions by running
// hello-world probes under it (§III.B: advertised stacks can be
// misconfigured and unusable).
func testStack(ec *EvalContext, cand *StackInfo, presenceOnly bool) (bool, string) {
	opts, site := ec.Opts, ec.Site
	if presenceOnly || opts.Runner == nil {
		return true, "presence only (no probe runner)"
	}
	snap := site.SnapshotEnv()
	defer site.RestoreEnv(snap)
	loadStackEnv(site, cand)
	// One probe session per candidate: the runner's per-session setup
	// (environment activation, submission-script template validation) is
	// paid once and shared by both hello-world probes below.
	pb := opts.Runner.BeginProbeBatch(ec.Context, site, cand.Key)
	defer pb.Close()

	tested := false
	// Native compile test: possible when the stack's compiler is present.
	if family, ok := toolchain.FamilyFromKey(cand.CompilerFamily); ok {
		if _, found := toolchain.FindCompiler(site, family); found {
			hello, err := ec.Engine.hellos.get(cand, site)
			if err == nil {
				res := runProbe(ec, pb, hello, cand.Key, nil)
				if !res.Success {
					return false, "native hello world failed: " + res.Detail
				}
				tested = true
			}
		}
	}
	// Extended test: the source site's hello world under this stack. A
	// failure classified as a missing shared library does not condemn the
	// stack — missing libraries are the shared-library determinant's
	// business and the resolution model may still fix them; crashes and
	// launch failures (ABI breaks, symbol-version mismatches, misconfigured
	// stacks) do.
	if opts.Bundle != nil && opts.Bundle.MPIHello != nil {
		res := runProbe(ec, pb, opts.Bundle.MPIHello, cand.Key, nil)
		if !res.Success && !res.MissingLib {
			return false, "source-site hello world failed: " + res.Detail
		}
		tested = true
	}
	if !tested {
		return true, "presence only (no testable probe)"
	}
	if opts.Bundle != nil {
		return true, "native and source hello worlds pass"
	}
	return true, "native hello world passes"
}

// stackRecordFromInfo converts discovered stack information into the record
// form the toolchain consumes. Every field is EDC-discoverable; no ground
// truth is involved.
func stackRecordFromInfo(info *StackInfo) *sitemodel.StackRecord {
	return &sitemodel.StackRecord{
		Key:             info.Key,
		Impl:            info.Impl,
		ImplVersion:     info.ImplVersion,
		CompilerFamily:  info.CompilerFamily,
		CompilerVersion: info.CompilerVersion,
		Prefix:          info.Prefix,
	}
}

// helloMemoCap bounds the hello-world memo; a full memo is emptied and
// refills from the sites still being probed.
const helloMemoCap = 1024

// helloMemo caches the native hello world testStack compiles for a
// candidate stack at a site. CompileHello is a pure function of
// helloKey's fields, so a hit returns the artifact a fresh compile would
// produce byte for byte. Artifacts are shared and read-only.
type helloMemo struct {
	mu sync.Mutex
	m  map[helloKey]*toolchain.Artifact
}

// helloKey is every input CompileHello reads: the stack record built by
// stackRecordFromInfo, and the site's name, architecture, C-library
// release and OS identity.
type helloKey struct {
	stack, impl, implVersion, compiler, compilerVersion string
	site, glibc, distro, osVersion                      string
	class                                               elfimg.Class
	machine                                             elfimg.Machine
	featureLevel                                        int
}

func newHelloMemo() *helloMemo {
	return &helloMemo{m: map[helloKey]*toolchain.Artifact{}}
}

// get returns the native hello world for cand at site, compiling it on a
// miss. The compile runs outside the memo's lock.
func (h *helloMemo) get(cand *StackInfo, site *sitemodel.Site) (*toolchain.Artifact, error) {
	k := helloKey{
		stack: cand.Key, impl: cand.Impl, implVersion: cand.ImplVersion,
		compiler: cand.CompilerFamily, compilerVersion: cand.CompilerVersion,
		site: site.Name, glibc: site.Glibc.String(),
		distro: site.OS.Distro, osVersion: site.OS.Version,
		class: site.Arch.Class, machine: site.Arch.Machine, featureLevel: site.Arch.FeatureLevel,
	}
	h.mu.Lock()
	art, ok := h.m[k]
	h.mu.Unlock()
	if ok {
		return art, nil
	}
	art, err := toolchain.CompileHello(stackRecordFromInfo(cand), site)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	if len(h.m) >= helloMemoCap {
		clear(h.m)
	}
	h.m[k] = art
	h.mu.Unlock()
	return art, nil
}

// loadStackEnv activates a stack in the site environment the way `module
// load` (or a manual PATH/LD_LIBRARY_PATH export) would.
func loadStackEnv(site *sitemodel.Site, stack *StackInfo) {
	if stack == nil {
		return
	}
	envmgmt.PrependPathEntry(site, "PATH", stack.Prefix+"/bin")
	envmgmt.PrependPathEntry(site, "LD_LIBRARY_PATH", stack.Prefix+"/lib")
}

// resolveMissing applies the resolution model (§IV): for every missing
// shared library, the prediction model is applied recursively to the
// bundled copy — ISA, C library requirement, and the copy's own shared
// library dependencies (which may recursively require further copies).
// Usable copies are staged at the target and exposed via the loader path.
//
// Staging is transactional: the whole plan is written into a temporary
// directory and published into StageDir with an atomic rename, or rolled
// back on fault — a failed run never leaves a half-populated StageDir.
func resolveMissing(ec *EvalContext, missing []string, shallow bool) {
	pred, env, site, opts := ec.Pred, ec.Env, ec.Site, ec.Opts
	stageDir := opts.StageDir
	if stageDir == "" {
		stageDir = deriveStageDir(ec.Desc, env.SiteName)
	}
	pred.StageDir = stageDir

	snap := site.SnapshotEnv()
	loadStackEnv(site, pred.SelectedStack)
	defer site.RestoreEnv(snap)

	planned := map[string]*LibraryCopy{}
	// requiredBy records reverse dependency edges (dep -> planned copies
	// that need it) so an unresolvable dependency can evict its dependents
	// transitively.
	requiredBy := map[string][]string{}
	pending := append([]string(nil), missing...)
	const maxPlanned = 256
	for len(pending) > 0 {
		name := pending[0]
		pending = pending[1:]
		if _, done := planned[name]; done {
			continue
		}
		if _, bad := pred.UnresolvedLibs[name]; bad {
			continue
		}
		copyLib := opts.Bundle.FindLibrary(name)
		if copyLib == nil {
			pred.UnresolvedLibs[name] = "no copy in bundle"
			continue
		}
		// Recursive prediction on the copy: ISA determinant.
		if copyLib.Desc.ISA != env.ISA || copyLib.Desc.Bits != env.Bits {
			pred.UnresolvedLibs[name] = fmt.Sprintf("copy is %s, site is %d-bit %s",
				copyLib.Desc.Format, env.Bits, env.UnameProcessor)
			continue
		}
		// C library determinant.
		if !copyLib.Desc.RequiredGlibc.IsZero() && !env.Glibc.IsZero() &&
			env.Glibc.Less(copyLib.Desc.RequiredGlibc) {
			pred.UnresolvedLibs[name] = fmt.Sprintf("copy requires glibc %s, site has %s",
				copyLib.Desc.RequiredGlibc, env.Glibc)
			continue
		}
		if len(planned) >= maxPlanned {
			pred.UnresolvedLibs[name] = "resolution plan too large"
			continue
		}
		planned[name] = copyLib
		if shallow {
			continue
		}
		// Shared library determinant, recursively: the copy's own
		// dependencies must be present at the target or resolvable too.
		for _, dep := range copyLib.Desc.Needed {
			if dep == name {
				continue
			}
			if _, already := planned[dep]; already {
				requiredBy[dep] = append(requiredBy[dep], name)
				continue
			}
			if targetHasLibrary(site, dep, copyLib.Desc) {
				continue
			}
			requiredBy[dep] = append(requiredBy[dep], name)
			pending = append(pending, dep)
		}
	}

	// Transitive poisoning: a planned copy whose dependency chain bottoms
	// out in an unresolvable library cannot load either. Walk the reverse
	// edges from every unresolvable name and evict dependents recursively —
	// staging them would publish copies the loader can never satisfy.
	evictQueue := make([]string, 0, len(pred.UnresolvedLibs))
	for n := range pred.UnresolvedLibs {
		evictQueue = append(evictQueue, n)
	}
	sort.Strings(evictQueue)
	for len(evictQueue) > 0 {
		bad := evictQueue[0]
		evictQueue = evictQueue[1:]
		for _, parent := range requiredBy[bad] {
			if _, isPlanned := planned[parent]; !isPlanned {
				continue
			}
			delete(planned, parent)
			pred.UnresolvedLibs[parent] = "copy depends on unresolvable " + bad
			evictQueue = append(evictQueue, parent)
		}
	}

	names := make([]string, 0, len(planned))
	for n := range planned {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return
	}
	stagePlan(ec, stageDir, names, planned)
}

// stagePlan writes a resolution plan to the target transactionally: every
// copy lands in a temporary sibling directory first, then the whole set is
// published with RemoveAll+Rename. Any permanent fault (or a transient one
// that outlives the retry budget) rolls the transaction back, marks the
// whole plan unresolved, and leaves no trace under StageDir.
func stagePlan(ec *EvalContext, stageDir string, names []string, planned map[string]*LibraryCopy) {
	pred, site := ec.Pred, ec.Site
	fs := site.FS()
	tmp := stageDir + ".staging"
	// The staging span wraps the whole transaction; while it runs it is the
	// parent for every staging operation and retry event underneath.
	sp := ec.Engine.tracer.Start(obs.OpStaging,
		obs.WithParent(ec.span), obs.WithSite(site.Name),
		obs.WithAttr(obs.AttrDir, stageDir),
		obs.WithAttr(obs.AttrLibs, strconv.Itoa(len(names))))
	prev := ec.span
	ec.span = sp
	defer func() { ec.span = prev }()
	rollback := func(reason string, err error) {
		failStaging(ec, names, reason)
		sp.SetAttr(obs.AttrCommitted, "false")
		sp.End(err)
	}
	// Clear debris from an earlier aborted transaction before writing.
	if err := retryFSOp(ec, tmp, func() error { return fs.RemoveAll(tmp) }); err != nil {
		rollback("staging setup failed: "+err.Error(), err)
		return
	}
	for _, name := range names {
		if err := stageOne(ec, tmp, name, planned[name]); err != nil {
			fs.RemoveAll(tmp)
			rollback(fmt.Sprintf("staging rolled back (fault writing %s: %v)", name, err), err)
			return
		}
	}
	if err := commitStage(ec, tmp, stageDir); err != nil {
		fs.RemoveAll(tmp)
		rollback("staging commit failed: "+err.Error(), err)
		return
	}
	pred.ResolvedLibs = append(pred.ResolvedLibs, names...)
	sp.SetAttr(obs.AttrCommitted, "true")
	sp.End(nil)
}

// failStaging records a rolled-back staging transaction: every planned
// library becomes unresolved with the shared reason.
func failStaging(ec *EvalContext, names []string, reason string) {
	for _, name := range names {
		ec.Pred.UnresolvedLibs[name] = reason
	}
}

// retryFSOp runs one staging filesystem operation under the engine's
// transient-retry policy. Each attempt is a staging_op span; each retry is
// an event on the enclosing staging span carrying the nominal backoff.
func retryFSOp(ec *EvalContext, path string, op func() error) error {
	site := ec.Site
	parent := ec.span
	tracer := ec.Engine.tracer
	_, err := fault.RetryWithHook(ec.Context, ec.Engine.RetryPolicy(),
		func(attempt int, backoff time.Duration) {
			parent.Event(obs.EvStagingRetry,
				obs.AttrPath, path,
				obs.AttrAttempt, strconv.Itoa(attempt),
				obs.AttrBackoffNS, strconv.FormatInt(int64(backoff), 10))
		},
		func() error {
			sp := tracer.Start(obs.OpStagingOp,
				obs.WithParent(parent), obs.WithSite(site.Name),
				obs.WithAttr(obs.AttrPath, path))
			err := op()
			sp.End(err)
			return err
		})
	return err
}

// stageOne writes one library copy (content plus attributes) into the
// staging directory, retrying transient faults under the engine's policy.
func stageOne(ec *EvalContext, tmp, name string, lc *LibraryCopy) error {
	dst := tmp + "/" + name
	return retryFSOp(ec, dst, func() error { return writeCopy(ec.Site.FS(), dst, lc) })
}

// writeCopy writes one library copy's data and attributes. Attributes go
// in sorted order so fault-injection sequences are deterministic.
func writeCopy(fs *vfs.FS, dst string, lc *LibraryCopy) error {
	if err := fs.WriteFile(dst, lc.Data); err != nil {
		return err
	}
	keys := make([]string, 0, len(lc.Attrs))
	for k := range lc.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := fs.SetAttr(dst, k, lc.Attrs[k]); err != nil {
			return err
		}
	}
	return nil
}

// commitStage atomically publishes a fully staged temporary directory as
// StageDir, retrying transient faults under the engine's policy.
func commitStage(ec *EvalContext, tmp, stageDir string) error {
	fs := ec.Site.FS()
	return retryFSOp(ec, stageDir, func() error {
		if err := fs.RemoveAll(stageDir); err != nil {
			return err
		}
		return fs.Rename(tmp, stageDir)
	})
}

// targetHasLibrary checks whether a NEEDED name resolves at the target
// under the current environment, with the loader's class filtering.
func targetHasLibrary(site *sitemodel.Site, name string, requester *BinaryDescription) bool {
	dirs := append(envmgmt.SplitPathVar(site.Getenv("LD_LIBRARY_PATH")), site.DefaultLibDirs()...)
	for _, dir := range dirs {
		f, err := site.FS().ReadELF(dir + "/" + name)
		if err != nil {
			continue
		}
		if f.Machine == requester.ISA && f.Class.Bits() == requester.Bits {
			return true
		}
	}
	return false
}

// shellQuote wraps a string in single quotes for safe use as a shell
// word — binary names with spaces or metacharacters must not be split or
// expanded by the emitted configuration script.
func shellQuote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// configScript emits the site-configuration script FEAM hands the user: the
// environment settings that make the predicted-ready execution happen.
func configScript(pred *Prediction, desc *BinaryDescription, cfg *Config) string {
	var b strings.Builder
	b.WriteString("#!/bin/sh\n")
	fmt.Fprintf(&b, "# FEAM site configuration for %s at %s\n", pred.Binary, pred.Site)
	if pred.SelectedStack != nil {
		s := pred.SelectedStack
		if s.DiscoveredVia == "modules" {
			fmt.Fprintf(&b, "module load %s\n", s.Key)
		} else if s.DiscoveredVia == "softenv" {
			fmt.Fprintf(&b, "soft add +%s\n", s.Key)
		} else {
			fmt.Fprintf(&b, "export PATH=%s/bin:$PATH\n", s.Prefix)
			fmt.Fprintf(&b, "export LD_LIBRARY_PATH=%s/lib:$LD_LIBRARY_PATH\n", s.Prefix)
		}
	}
	if len(pred.ResolvedLibs) > 0 {
		fmt.Fprintf(&b, "# %d shared libraries staged by the FEAM resolution model\n", len(pred.ResolvedLibs))
		fmt.Fprintf(&b, "export LD_LIBRARY_PATH=%s:$LD_LIBRARY_PATH\n", pred.StageDir)
	}
	launch := DefaultLaunchCommand
	if cfg != nil && desc.MPIImpl != "" {
		launch = cfg.LaunchCommand(desc.MPIImpl)
	}
	if desc.MPIImpl != "" {
		fmt.Fprintf(&b, "exec %s -n \"${NP:-4}\" %s\n", launch, shellQuote(pred.Binary))
	} else {
		fmt.Fprintf(&b, "exec %s\n", shellQuote(pred.Binary))
	}
	return b.String()
}
