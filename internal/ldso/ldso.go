// Package ldso simulates the Unix dynamic loader's library resolution: the
// breadth-first closure over DT_NEEDED entries, the search order
// (DT_RPATH, LD_LIBRARY_PATH, then the built-in directories), wrong-ELF-class
// rejection, and GNU symbol-version checking (every version a binary
// references must be defined by the object that gets loaded for that
// dependency).
//
// FEAM's `ldd` equivalent and its missing-library discovery are built on
// this resolver, and the execution simulator uses it as the ground truth for
// link-time failures.
package ldso

import (
	"fmt"
	"slices"
	"sort"

	"feam/internal/elfimg"
	"feam/internal/vfs"
)

// Options configures a resolution.
type Options struct {
	// FS is the filesystem to search.
	FS *vfs.FS
	// LibraryPath lists LD_LIBRARY_PATH directories in order.
	LibraryPath []string
	// DefaultDirs lists the loader's built-in directories (/lib64, ...).
	DefaultDirs []string
	// ExtraSearchDirs are prepended even before LibraryPath — used by the
	// resolution model to stage bundled library copies.
	ExtraSearchDirs []string
	// Preload lists object paths loaded before the root's dependencies,
	// the LD_PRELOAD mechanism.
	Preload []string
	// CheckSymbols enables eager symbol binding (the LD_BIND_NOW
	// behaviour): every imported symbol of every loaded object must be
	// exported by some object in the closure, with a matching version when
	// the import is version-bound. Lazy binding (the default) only fails
	// when a missing symbol is first called, which is why the paper's
	// metadata-level prediction cannot see these failures up front.
	CheckSymbols bool
	// MaxObjects caps the dependency closure as a loop guard.
	MaxObjects int
}

// Object is one loaded shared object in the closure.
type Object struct {
	// Name is the DT_NEEDED string that requested the object ("root" uses
	// the binary path).
	Name string
	// Path is the filesystem location the loader chose.
	Path string
	// RealPath is Path with symlinks resolved.
	RealPath string
	// File is the parsed ELF metadata.
	File *elfimg.File
	// RequestedBy is the name of the first object that needed this one.
	RequestedBy string
}

// Missing records an unresolvable DT_NEEDED entry.
type Missing struct {
	// Name is the library that could not be found.
	Name string
	// RequestedBy is the object that needed it.
	RequestedBy string
	// WrongClass is true when candidates existed but had the wrong ELF
	// class/machine ("wrong ELF class: ELFCLASS32" style failures).
	WrongClass bool
}

func (m Missing) String() string {
	if m.WrongClass {
		return fmt.Sprintf("%s => wrong ELF class (needed by %s)", m.Name, m.RequestedBy)
	}
	return fmt.Sprintf("%s => not found (needed by %s)", m.Name, m.RequestedBy)
}

// UndefinedSymbol records an import no loaded object exports (eager-binding
// failures: "undefined symbol: MPI_Win_create").
type UndefinedSymbol struct {
	// Symbol is the unresolved name (with version when bound).
	Symbol string
	// RequestedBy is the object importing it.
	RequestedBy string
}

func (u UndefinedSymbol) String() string {
	return fmt.Sprintf("undefined symbol: %s (needed by %s)", u.Symbol, u.RequestedBy)
}

// VersionError records an unsatisfied symbol-version reference, the
// "version `GLIBC_2.12' not found" class of failure.
type VersionError struct {
	// Version is the referenced version name.
	Version string
	// Library is the dependency expected to define it.
	Library string
	// LibraryPath is where that dependency was loaded from ("" if missing).
	LibraryPath string
	// RequestedBy is the object carrying the reference.
	RequestedBy string
}

func (v VersionError) String() string {
	return fmt.Sprintf("%s: version `%s' not found (required by %s)", v.Library, v.Version, v.RequestedBy)
}

// Resolution is the result of resolving a binary's dependency closure.
type Resolution struct {
	// Root is the binary being resolved.
	Root *Object
	// Objects maps NEEDED name to the loaded object, excluding the root.
	Objects map[string]*Object
	// Order lists NEEDED names in load (breadth-first) order.
	Order []string
	// Missing lists unresolvable dependencies.
	Missing []Missing
	// VersionErrors lists unsatisfied version references.
	VersionErrors []VersionError
	// UndefinedSymbols lists eager-binding failures (only populated when
	// Options.CheckSymbols is set).
	UndefinedSymbols []UndefinedSymbol
}

// OK reports whether the loader would start the program: every dependency
// found with every referenced version defined (and, under eager binding,
// every symbol resolvable).
func (r *Resolution) OK() bool {
	return len(r.Missing) == 0 && len(r.VersionErrors) == 0 && len(r.UndefinedSymbols) == 0
}

// MissingNames returns the sorted set of missing library names.
func (r *Resolution) MissingNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range r.Missing {
		if !seen[m.Name] {
			seen[m.Name] = true
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Summary renders an ldd-style report.
func (r *Resolution) Summary() string {
	out := ""
	for _, name := range r.Order {
		o := r.Objects[name]
		out += fmt.Sprintf("\t%s => %s\n", name, o.Path)
	}
	for _, m := range r.Missing {
		out += fmt.Sprintf("\t%s => not found\n", m.Name)
	}
	for _, v := range r.VersionErrors {
		out += "\t" + v.String() + "\n"
	}
	return out
}

// ResolveBytes resolves a binary supplied as raw ELF bytes (the typical case
// for a migrated application binary that may not live on the site
// filesystem).
func ResolveBytes(bin []byte, name string, opts Options) (*Resolution, error) {
	f, err := elfimg.Parse(bin)
	if err != nil {
		return nil, err
	}
	return Resolve(f, name, opts)
}

// Resolve resolves an already parsed binary, for callers that hold the
// parse (the execution simulator checks the image's ISA before loading
// it). The resolution keeps f as its root's File, so f must not change
// afterwards.
func Resolve(f *elfimg.File, name string, opts Options) (*Resolution, error) {
	return resolve(&Object{Name: name, Path: name, RealPath: name, File: f}, opts)
}

func resolve(root *Object, opts Options) (*Resolution, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("ldso: no filesystem")
	}
	maxObjects := opts.MaxObjects
	if maxObjects == 0 {
		maxObjects = 512
	}
	res := &Resolution{Root: root, Objects: map[string]*Object{}}
	var qbuf [64]request
	queue := qbuf[:0]

	// LD_PRELOAD objects load first; their own dependencies join the
	// closure like anything else.
	for _, p := range opts.Preload {
		f, err := opts.FS.ReadELF(p)
		if err != nil || f.Class != root.File.Class || f.Machine != root.File.Machine {
			res.Missing = append(res.Missing, Missing{Name: p, RequestedBy: "LD_PRELOAD", WrongClass: err == nil})
			continue
		}
		name := f.Soname
		if name == "" {
			name = p
		}
		if _, loaded := res.Objects[name]; loaded {
			continue
		}
		obj := &Object{Name: name, Path: p, RealPath: p, File: f, RequestedBy: "LD_PRELOAD"}
		res.Objects[name] = obj
		res.Order = append(res.Order, name)
		for _, n := range f.Needed {
			queue = append(queue, request{n, obj})
		}
	}

	for _, n := range root.File.Needed {
		queue = append(queue, request{n, root})
	}

	c := closure{res: res, root: root, fs: opts.FS, missingFrom: len(res.Missing)}
	c.rpathAt = c.addFixed(opts.ExtraSearchDirs)
	c.runpathAt = c.addFixed(opts.LibraryPath)
	c.nfixed = c.addFixed(opts.DefaultDirs)
	for i := 0; i < len(queue); i++ {
		req := queue[i]
		if c.done(req.name) {
			continue
		}
		if len(res.Objects) >= maxObjects {
			return nil, fmt.Errorf("ldso: dependency closure exceeds %d objects", maxObjects)
		}
		obj, wrongClass := c.locate(req.name, req.by)
		if obj == nil {
			res.Missing = append(res.Missing, Missing{
				Name: req.name, RequestedBy: req.by.Name, WrongClass: wrongClass,
			})
			continue
		}
		obj.RequestedBy = req.by.Name
		res.Objects[req.name] = obj
		res.Order = append(res.Order, req.name)
		for _, n := range obj.File.Needed {
			if !c.done(n) {
				queue = append(queue, request{n, obj})
			}
		}
	}

	checkVersions(res)
	if opts.CheckSymbols {
		checkSymbols(res)
	}
	return res, nil
}

// request is one DT_NEEDED entry waiting in the breadth-first queue.
type request struct {
	name string
	by   *Object
}

// closure is the state of one resolution: its result so far and the
// loader's search directories, each distinct one opened once. It lives on
// resolve's stack, so its directories sit in a fixed array; a closure
// with more of them than that keeps the rest in a slice.
type closure struct {
	res  *Resolution
	root *Object
	fs   *vfs.FS
	// missingFrom is where the closure's own entries in res.Missing
	// start, after those of LD_PRELOAD.
	missingFrom int

	// The opened directories are dirs[:ndirs], continued in more. The
	// first nfixed are, entry for entry, the search order every lookup
	// shares: ExtraSearchDirs, then LibraryPath from rpathAt, then
	// DefaultDirs from runpathAt; a repeated entry holds a copy of its
	// first handle. A requester's RPATH entries are searched at rpathAt
	// and its RUNPATH at runpathAt.
	dirs                              [24]searchDir
	more                              []searchDir
	ndirs, nfixed, rpathAt, runpathAt int
}

// searchDir is an opened search directory and the string that named it.
type searchDir struct {
	path string
	dir  vfs.Dir
}

// addFixed appends dirs to the search order every lookup shares and
// returns its new length.
func (c *closure) addFixed(dirs []string) int {
	for _, dir := range dirs {
		if j := c.find(dir); j >= 0 {
			c.add(*c.dir(j))
		} else {
			c.add(searchDir{dir, c.fs.OpenDir(dir)})
		}
	}
	return c.ndirs
}

// open returns the slot of the directory named dir, opening it on first
// use.
func (c *closure) open(dir string) int {
	if j := c.find(dir); j >= 0 {
		return j
	}
	return c.add(searchDir{dir, c.fs.OpenDir(dir)})
}

// find returns the slot of the directory named dir, or -1.
func (c *closure) find(dir string) int {
	for j := 0; j < c.ndirs; j++ {
		if c.dir(j).path == dir {
			return j
		}
	}
	return -1
}

// add stores d in the next slot and returns it.
func (c *closure) add(d searchDir) int {
	if c.ndirs < len(c.dirs) {
		c.dirs[c.ndirs] = d
	} else {
		c.more = append(c.more, d)
	}
	c.ndirs++
	return c.ndirs - 1
}

// dir returns slot j.
func (c *closure) dir(j int) *searchDir {
	if j < len(c.dirs) {
		return &c.dirs[j]
	}
	return &c.more[j-len(c.dirs)]
}

// done reports whether name has been loaded or found missing already.
func (c *closure) done(name string) bool {
	if _, loaded := c.res.Objects[name]; loaded {
		return true
	}
	for _, m := range c.res.Missing[c.missingFrom:] {
		if m.Name == name {
			return true
		}
	}
	return false
}

// checkSymbols performs eager symbol binding over the closure: every import
// must be satisfied by an export somewhere in the loaded set. Version-bound
// imports require the same (name, version) export; unversioned imports
// accept any export of the name.
func checkSymbols(res *Resolution) {
	type versioned struct{ name, version string }
	plain := map[string]bool{}
	exact := map[versioned]bool{}
	record := func(o *Object) {
		for _, ex := range o.File.Exports {
			plain[ex.Name] = true
			exact[versioned{ex.Name, ex.Version}] = true
		}
	}
	all := make([]*Object, 0, len(res.Objects)+1)
	all = append(all, res.Root)
	for _, name := range res.Order {
		all = append(all, res.Objects[name])
	}
	for _, o := range all {
		record(o)
	}
	for _, o := range all {
		for _, im := range o.File.Imports {
			if im.Version == "" {
				if !plain[im.Name] {
					res.UndefinedSymbols = append(res.UndefinedSymbols, UndefinedSymbol{
						Symbol: im.Name, RequestedBy: o.Name,
					})
				}
				continue
			}
			// If the providing library is missing entirely, the missing-
			// library report already covers it.
			if _, loaded := res.Objects[im.Library]; !loaded && im.Library != "" {
				continue
			}
			if !exact[versioned{im.Name, im.Version}] {
				res.UndefinedSymbols = append(res.UndefinedSymbols, UndefinedSymbol{
					Symbol: im.Name + "@" + im.Version, RequestedBy: o.Name,
				})
			}
		}
	}
}

// locate searches for a NEEDED name using the loader's directory order and
// class filtering. It returns nil when nothing usable is found; wrongClass
// reports whether a candidate with the wrong ELF class was encountered.
// Only the library it returns gets its paths built.
func (c *closure) locate(name string, requester *Object) (obj *Object, wrongClass bool) {
	// Search lists are a handful of directories; the buffer keeps this
	// per-dependency list off the heap.
	var buf [32]int
	search := buf[:0]
	for j := 0; j < c.rpathAt; j++ {
		search = append(search, j)
	}
	// DT_RPATH of the requesting object, then of the root (the historical
	// inheritance rule FEAM-era systems used). A DT_RUNPATH on the
	// requester disables its RPATH and is searched after LD_LIBRARY_PATH,
	// without inheritance — the modern semantics.
	root := c.root.File
	if requester.File.RunPath == "" {
		if rp := requester.File.RPath; rp != "" {
			search = append(search, c.open(rp))
		}
		if rp := root.RPath; rp != "" && requester != c.root && root.RunPath == "" {
			search = append(search, c.open(rp))
		}
	}
	for j := c.rpathAt; j < c.runpathAt; j++ {
		search = append(search, j)
	}
	if rp := requester.File.RunPath; rp != "" {
		search = append(search, c.open(rp))
	}
	for j := c.runpathAt; j < c.nfixed; j++ {
		search = append(search, j)
	}

	for _, j := range search {
		d := &c.dir(j).dir
		f, realPath, err := d.ReadELF(name)
		if err != nil {
			continue // absent, or not an ELF (linker script, text stub): keep searching
		}
		if f.Class != root.Class || f.Machine != root.Machine {
			wrongClass = true
			continue
		}
		return &Object{Name: name, Path: d.Join(name), RealPath: realPath, File: f}, false
	}
	return nil, wrongClass
}

// checkVersions verifies every symbol-version reference in the closure
// against the version definitions of the loaded objects.
func checkVersions(res *Resolution) {
	all := make([]*Object, 0, len(res.Objects)+1)
	all = append(all, res.Root)
	for _, name := range res.Order {
		all = append(all, res.Objects[name])
	}
	for _, o := range all {
		for _, vn := range o.File.VerNeeds {
			dep, ok := res.Objects[vn.File]
			if !ok {
				// The dependency itself is missing (already reported) or the
				// reference targets a library outside the NEEDED set; the
				// loader reports the version failure only when the file was
				// expected, so skip silently here.
				continue
			}
			for _, want := range vn.Versions {
				if !slices.Contains(dep.File.VerDefs, want) {
					res.VersionErrors = append(res.VersionErrors, VersionError{
						Version: want, Library: vn.File, LibraryPath: dep.Path,
						RequestedBy: o.Name,
					})
				}
			}
		}
	}
}
