package main

import (
	"fmt"
	"math/rand"

	"feam/internal/elfimg"
	"feam/internal/libver"
	"feam/internal/scenario"
	"feam/internal/sitemodel"
	"feam/internal/testbed"
	"feam/internal/toolchain"
	"feam/internal/workload"
)

// glibcSweep is the C-library range the seeded groups draw from.
var glibcSweep = []string{"2.3.4", "2.5", "2.11.1", "2.12"}

// groupTemplate is one site group before the seed fixes its glibc
// rotation and batch manager. Each template puts one compiler and one
// stack on a site except "dual", so a site costs about what an isa-mix
// site costs. Sizes are multiples of the four glibc releases, so every
// release runs on the same number of sites of a group whatever the seed.
type groupTemplate struct {
	name      string
	sites     int
	isa       string
	envTool   string
	compilers []string
	stacks    []string
	broken    []string
	ib        bool
	compat    bool
}

var groupTemplates = []groupTemplate{
	{name: "ompi-gnu", sites: 8, isa: "x86_64", envTool: "modules", compilers: []string{"gnu-4.1.2"}, stacks: []string{"openmpi-1.4/gnu"}},
	{name: "ompi-intel", sites: 4, isa: "x86_64", envTool: "softenv", compilers: []string{"intel-11.1"}, stacks: []string{"openmpi-1.3/intel"}, ib: true},
	{name: "mvapich-gnu", sites: 8, isa: "x86_64", envTool: "modules", compilers: []string{"gnu-4.4.5"}, stacks: []string{"mvapich2-1.7a2/gnu"}, ib: true},
	{name: "mvapich-intel", sites: 4, isa: "x86_64", envTool: "", compilers: []string{"intel-10.1"}, stacks: []string{"mvapich2-1.2/intel"}, ib: true},
	{name: "mpich-intel", sites: 8, isa: "x86_64", envTool: "", compilers: []string{"intel-12"}, stacks: []string{"mpich2-1.4/intel"}},
	{name: "mpich-gnu", sites: 4, isa: "x86_64", envTool: "softenv", compilers: []string{"gnu-4.4.3"}, stacks: []string{"mpich2-1.3/gnu"}, compat: true},
	{name: "broken", sites: 4, isa: "x86_64", envTool: "modules", compilers: []string{"gnu-4.1.2"}, stacks: []string{"openmpi-1.4/gnu"}, broken: []string{"openmpi-1.4/gnu"}},
	{name: "dual", sites: 4, isa: "x86_64", envTool: "modules", compilers: []string{"gnu-4.1.2", "intel-11.1"}, stacks: []string{"openmpi-1.4/gnu+intel"}, ib: true},
	{name: "i686", sites: 4, isa: "i686", envTool: "modules", compilers: []string{"gnu-4.1.2"}, stacks: []string{"openmpi-1.4/gnu"}},
	{name: "ppc64", sites: 4, isa: "ppc64", envTool: "softenv", compilers: []string{"gnu-4.1.2"}, stacks: []string{"openmpi-1.4/gnu"}},
}

var managers = []string{"pbs", "sge", "slurm"}

// fleetSpec generates the benchmark fleet from the seed: the five Table II
// sites plus the template groups, each shrunk by groupDiv. The seed
// decides which site of a group runs which C-library release, and each
// group's batch manager. It does not decide group sizes, the releases in
// a group or the environment tool: those set how many sites pass each rung
// of the ladder and what a probe costs, and so the cost of an op, which
// must not depend on the seed.
func fleetSpec(seed int64, groupDiv int) scenario.FleetSpec {
	rng := rand.New(rand.NewSource(seed))
	spec := scenario.FleetSpec{Base: scenario.FleetBaseTable2}
	for _, t := range groupTemplates {
		count := t.sites / groupDiv
		if count < 1 {
			count = 1
		}
		glibc := append([]string(nil), glibcSweep...)
		rng.Shuffle(len(glibc), func(a, b int) { glibc[a], glibc[b] = glibc[b], glibc[a] })
		spec.Groups = append(spec.Groups, scenario.FleetGroup{
			Name:              t.name,
			Count:             count,
			ISA:               []string{t.isa},
			Glibc:             glibc,
			EnvTool:           t.envTool,
			Manager:           managers[rng.Intn(len(managers))],
			Infiniband:        t.ib,
			CompatFortranLibs: t.compat,
			Compilers:         t.compilers,
			Stacks:            t.stacks,
			Broken:            t.broken,
		})
	}
	return spec
}

// corpusEntry names one application binary of the upload corpus: an NPB
// 2.4 or SPEC MPI2007 code built at a Table II site with one of its
// stacks.
type corpusEntry struct {
	code, site, impl, version, family string
}

var corpusEntries = []corpusEntry{
	{"is", "ranger", "openmpi", "1.3", "gnu"},
	{"cg", "ranger", "mvapich2", "1.2", "gnu"},
	{"bt", "india", "mpich2", "1.4", "gnu"},
	{"lu", "forge", "openmpi", "1.4", "intel"},
	{"122.tachyon", "fir", "mvapich2", "1.7a", "intel"},
	{"107.leslie3d", "blacklight", "openmpi", "1.4", "intel"},
	{"104.milc", "fir", "mpich2", "1.3", "gnu"},
	{"127.GAPgeofem", "forge", "openmpi", "1.4", "gnu"},
	{"126.lammps", "india", "openmpi", "1.4", "gnu"},
}

// binary is one program the workloads ask about, with the facts the
// known answers are derived from.
type binary struct {
	name  string
	image []byte
	// truth is the compiler's ground truth.
	truth toolchain.GroundTruth
	// machine, class, needed and requiredGlibc come from the image's ELF
	// headers: the link set the toolchain wrote.
	machine       elfimg.Machine
	class         elfimg.Class
	needed        []string
	imports       []elfimg.ImportedSymbol
	requiredGlibc libver.Version
	// share is the binary's share of requests (see corpusShares).
	share int
}

func newBinary(name string, image []byte, truth toolchain.GroundTruth) (*binary, error) {
	f, err := elfimg.Parse(image)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", name, err)
	}
	return &binary{
		name: name, image: image, truth: truth,
		machine: f.Machine, class: f.Class,
		needed:        f.Needed,
		imports:       f.Imports,
		requiredGlibc: libver.HighestGlibc(f.VersionRefNames()),
	}, nil
}

// corpusShares is each entry's share of requests, about 18/(1+i): a Zipf
// skew under which the small NPB kernels carry most requests and the large
// SPEC images a tail. The largest image gets one share in 48, so p99 falls
// near the middle of its latencies rather than in their tail. The seed
// orders requests but does not change the shares, so the bytes uploaded
// per request do not depend on it.
var corpusShares = []int{18, 9, 6, 4, 3, 3, 2, 2, 1}

// compileCorpus builds the upload corpus at a private copy of the Table II
// sites.
func compileCorpus() ([]*binary, error) {
	tb, err := testbed.Build()
	if err != nil {
		return nil, fmt.Errorf("building Table II sites for the corpus: %w", err)
	}
	var out []*binary
	for _, ce := range corpusEntries {
		site := tb.ByName[ce.site]
		var rec *sitemodel.StackRecord
		for _, s := range site.Stacks {
			if s.Impl == ce.impl && s.ImplVersion == ce.version && s.CompilerFamily == ce.family {
				rec = s
			}
		}
		if rec == nil {
			return nil, fmt.Errorf("corpus: %s has no %s-%s/%s stack", ce.site, ce.impl, ce.version, ce.family)
		}
		code := workload.Find(ce.code)
		if code == nil {
			return nil, fmt.Errorf("corpus: unknown code %q", ce.code)
		}
		art, err := toolchain.Compile(code, rec, site)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		b, err := newBinary(art.Name, art.Bytes, art.Truth)
		if err != nil {
			return nil, err
		}
		b.share = corpusShares[len(out)]
		out = append(out, b)
	}
	return out, nil
}

// deck draws indices in seeded order while keeping their proportions
// exact: it deals a shuffled deck holding index i counts[i] times and
// reshuffles when the deck runs out. Any stretch of a request sequence
// then carries the same mix whatever the seed, which i.i.d. draws would
// not — a few more large uploads in one run than another moved its
// throughput by over 10%.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, counts []int) *deck {
	d := &deck{rng: rng}
	for i, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, i)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(a, b int) { d.cards[a], d.cards[b] = d.cards[b], d.cards[a] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// ones returns n counts of 1: a deck that visits every index once a round.
func ones(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = 1
	}
	return c
}

// shares returns the binaries' request shares.
func shares(bins []*binary) []int {
	c := make([]int, len(bins))
	for i, b := range bins {
		c[i] = b.share
	}
	return c
}
