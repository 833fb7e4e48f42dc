package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"feam/internal/elfimg"
	"feam/internal/feam"
	"feam/internal/libver"
	"feam/internal/obs"
	"feam/internal/scenario"
	"feam/internal/sitemodel"
	"feam/internal/vfs"
)

// churnBench is the only workload that writes. Each op first mutates a
// site under its lock, off the clock — a C-library upgrade or rollback,
// removing or restoring a library the binary links from its stack, or
// stripping or restoring an MPI export — and works out the answer the new
// state implies. Then, on the clock, it re-predicts a corpus binary there
// through the coalescer with presence-only MPI checks and runs the ABI
// check with agreement mode on, as GET /v1/abi/{site} does. A stale
// survey or symbol index shows up as a wrong verdict.
type churnBench struct {
	spec scenario.FleetSpec
	seed int64
	bins []*binary
	pool []churnPair
	plan []churnStep

	stack *engineStack
	co    *feam.Coalescer
	descs []*feam.BinaryDescription
	// oracle works out each op's answer from the live fleet; it belongs
	// to one build, since it holds on to that fleet's library bytes.
	oracle  *oracle
	sinceGC int
	// saved holds what a removal or a strip took away, keyed by site, so
	// the next mutation of that kind restores it.
	removed  map[string]savedEntry
	stripped map[string]savedEntry
}

// churnGCEvery is how many ops run between off-clock collections. An op
// allocates a few megabytes, so 64 of them stay well inside the heap's
// growth allowance over the fleet of about 0.7 GB.
const churnGCEvery = 64

// churnPair is a site and a binary whose MPI implementation the site
// installs exactly once, so the stack FEAM selects is known.
type churnPair struct {
	site string
	bin  int
}

type mutation int

const (
	mutGlibc mutation = iota
	mutLib
	mutStrip
)

var mutationNames = []string{"glibc", "lib", "strip"}

type churnStep struct {
	pair int
	kind mutation
	arg  int
}

// savedEntry is a filesystem entry taken away by a mutation.
type savedEntry struct {
	path   string
	target string // symlink destination, or "" for a regular file
	data   []byte
}

func (c *churnBench) clients() int { return 1 }

func (c *churnBench) generate(seed int64, sc scale, digest hash.Hash) error {
	c.seed = seed
	c.spec = fleetSpec(seed, sc.groupDiv)
	fmt.Fprintf(digest, "fleet %+v\n", c.spec)
	bins, err := compileCorpus()
	if err != nil {
		return err
	}
	c.bins = bins
	specs, err := scenario.ExpandFleet(c.spec)
	if err != nil {
		return err
	}
	for _, s := range specs {
		if s.ISA != "" && s.ISA != "x86_64" {
			continue
		}
		for bi, b := range bins {
			n := 0
			for _, st := range s.Stacks {
				if st.Impl.Key() == b.truth.Impl {
					n += len(st.Compilers)
				}
			}
			if n == 1 {
				c.pool = append(c.pool, churnPair{site: s.Name, bin: bi})
			}
		}
	}
	if len(c.pool) == 0 {
		return fmt.Errorf("no site installs a corpus binary's MPI implementation exactly once")
	}
	for _, b := range bins {
		fmt.Fprintf(digest, "binary %s %x\n", b.name, sha256.Sum256(b.image))
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := newDeck(rng, ones(len(c.pool)))
	// C-library swaps rewrite a dozen large images, so they come a
	// quarter of the time; the cheaper toggles share the rest.
	kinds := newDeck(rng, []int{mutGlibc: 2, mutLib: 3, mutStrip: 3})
	c.plan = make([]churnStep, sc.seqLen)
	for i := range c.plan {
		kind := mutation(kinds.draw())
		c.plan[i] = churnStep{pair: pairs.draw(), kind: kind, arg: rng.Intn(1 << 20)}
		p := c.pool[c.plan[i].pair]
		fmt.Fprintf(digest, "step %s %d %s %d\n", p.site, p.bin, mutationNames[kind], c.plan[i].arg)
	}
	return nil
}

func (c *churnBench) build() (setupTimes, error) {
	st, times, err := buildEngineStack(c.spec, c.seed)
	if err != nil {
		return times, err
	}
	c.stack, c.co, c.oracle = st, feam.NewCoalescer(st.eng), newOracle()
	c.removed, c.stripped = map[string]savedEntry{}, map[string]savedEntry{}
	return times, nil
}

// cold describes the corpus and, for every pair, surveys the site,
// builds its symbol index and predicts once.
func (c *churnBench) cold(ctx context.Context) error {
	c.descs = c.descs[:0]
	for _, b := range c.bins {
		d, err := c.stack.eng.Describe(ctx, b.image, b.name)
		if err != nil {
			return err
		}
		c.descs = append(c.descs, d)
	}
	for _, p := range c.pool {
		if res := c.check(ctx, nil, p); res.cause != causeNone {
			return fmt.Errorf("%s", res.detail)
		}
	}
	return nil
}

func (c *churnBench) op(ctx context.Context, tr *obs.Tracer, _, i int) opResult {
	step := c.plan[i%len(c.plan)]
	p := c.pool[step.pair]
	t := time.Now()
	site := c.stack.tb.ByName[p.site]
	lock := c.stack.eng.SiteLock(p.site)
	lock.Lock()
	err := c.mutate(site, c.bins[p.bin], step)
	lock.Unlock()
	if err != nil {
		return opResult{offClock: time.Since(t), cause: causeError, detail: err.Error()}
	}
	c.oracle.forget(site.FS())
	res := c.check(ctx, tr, p)
	res.offClock += time.Since(t) - res.latency
	return res
}

// check works out the known answer off the clock, then predicts and runs
// the ABI check on it.
func (c *churnBench) check(ctx context.Context, tr *obs.Tracer, p churnPair) opResult {
	site, b := c.stack.tb.ByName[p.site], c.bins[p.bin]
	want, err := c.oracle.verdict(site, b, false)
	if err != nil {
		return opResult{cause: causeError, detail: err.Error()}
	}
	wantUnresolved := c.oracle.unresolved(site, b)
	// The mutations leave megabytes of garbage off the clock. Collected
	// when the runtime chose, it made about one on-clock op in a hundred
	// share the CPU with a mark phase, and p99 moved by 40% between runs;
	// a collection off the clock before the heap can reach its goal keeps
	// every on-clock op clear of one.
	if c.sinceGC++; c.sinceGC == churnGCEvery {
		runtime.GC()
		c.sinceGC = 0
	}

	sp := tr.Start(rootChurn)
	cctx := obs.ContextWithSpan(ctx, sp)
	t := time.Now()
	pred, _, perr := c.co.Predict(cctx, feam.EvalRequest{Desc: c.descs[p.bin], Binary: b.image, Site: site})
	lock := c.stack.eng.SiteLock(p.site)
	lock.Lock()
	rep, aerr := c.stack.eng.ABICheck(cctx, site, b.image, b.name, true)
	lock.Unlock()
	res := opResult{latency: time.Since(t)}
	sp.End(nil)

	switch {
	case perr != nil:
		res.cause, res.detail = causeError, fmt.Sprintf("%s at %s: %v", b.name, p.site, perr)
	case aerr != nil:
		res.cause, res.detail = causeError, fmt.Sprintf("abi %s at %s: %v", b.name, p.site, aerr)
	case verdictOf(pred) != want:
		res.cause, res.detail = causeWrong, fmt.Sprintf("%s at %s: got %s, want %s", b.name, p.site, verdictOf(pred), want)
	case rep.Missing+rep.Mismatch+rep.Conflicts != wantUnresolved:
		res.cause, res.detail = causeWrong, fmt.Sprintf("abi %s at %s: %d unresolved, want %d",
			b.name, p.site, rep.Missing+rep.Mismatch+rep.Conflicts, wantUnresolved)
	}
	return res
}

// stackFor returns the site's single installation of b's implementation.
func stackFor(site *sitemodel.Site, b *binary) (*sitemodel.StackRecord, error) {
	for _, rec := range site.Stacks {
		if rec.Impl == b.truth.Impl {
			return rec, nil
		}
	}
	return nil, fmt.Errorf("%s installs no %s", site.Name, b.truth.Impl)
}

// identifying reports the libraries the survey finds a stack by; removing
// them would turn a shared-library failure into a missing stack.
func identifying(soname string) bool {
	return strings.HasPrefix(soname, "libmpi.so") || strings.HasPrefix(soname, "libmpich.so")
}

func (c *churnBench) mutate(site *sitemodel.Site, b *binary, step churnStep) error {
	fs := site.FS()
	switch step.kind {
	case mutGlibc:
		cur := site.Glibc.String()
		target := glibcSweep[step.arg%len(glibcSweep)]
		if target == cur {
			target = glibcSweep[(step.arg+1)%len(glibcSweep)]
		}
		return site.UpgradeCLibrary(libver.MustParseVersion(target))
	case mutLib:
		if saved, ok := c.removed[site.Name]; ok {
			delete(c.removed, site.Name)
			return restore(fs, saved)
		}
		rec, err := stackFor(site, b)
		if err != nil {
			return err
		}
		var names []string
		for _, n := range b.needed {
			if !identifying(n) && fs.Exists(rec.Prefix+"/lib/"+n) {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return nil
		}
		p := rec.Prefix + "/lib/" + names[step.arg%len(names)]
		saved, err := save(fs, p)
		if err != nil {
			return err
		}
		c.removed[site.Name] = saved
		return fs.Remove(p)
	case mutStrip:
		if saved, ok := c.stripped[site.Name]; ok {
			delete(c.stripped, site.Name)
			return restore(fs, saved)
		}
		rec, err := stackFor(site, b)
		if err != nil {
			return err
		}
		for _, n := range b.needed {
			if !identifying(n) {
				continue
			}
			real, err := fs.ResolvePath(rec.Prefix + "/lib/" + n)
			if err != nil {
				return nil // removed from under the stack; nothing to strip
			}
			data, err := fs.ReadFile(real)
			if err != nil {
				return err
			}
			f, err := elfimg.Parse(data)
			if err != nil {
				return err
			}
			exported := map[string]bool{}
			for _, ex := range f.Exports {
				exported[ex.Name] = true
			}
			var syms []string
			for _, im := range b.imports {
				if strings.HasPrefix(im.Name, "MPI_") && exported[im.Name] {
					syms = append(syms, im.Name)
				}
			}
			if len(syms) == 0 {
				return nil
			}
			sort.Strings(syms)
			c.stripped[site.Name] = savedEntry{path: real, data: data}
			return site.StripExport(real, syms[step.arg%len(syms)])
		}
	}
	return nil
}

func save(fs *vfs.FS, p string) (savedEntry, error) {
	info, err := fs.Lstat(p)
	if err != nil {
		return savedEntry{}, err
	}
	if info.Kind == vfs.KindSymlink {
		return savedEntry{path: p, target: info.Target}, nil
	}
	data, err := fs.ReadFile(p)
	return savedEntry{path: p, data: data}, err
}

func restore(fs *vfs.FS, s savedEntry) error {
	if s.target != "" {
		return fs.Symlink(s.target, s.path)
	}
	return fs.WriteFile(s.path, s.data)
}

func (c *churnBench) engine() *feam.Engine { return c.stack.eng }

func (c *churnBench) coalescer() feam.CoalescerStats { return c.co.Stats() }

func (c *churnBench) release() { c.stack, c.co, c.oracle = nil, nil, nil }
