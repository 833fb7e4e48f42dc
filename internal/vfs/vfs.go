// Package vfs implements the in-memory POSIX-style filesystem that backs
// every simulated computing site. FEAM's discovery components exercise the
// same operations they would on a real system — reading files under /proc
// and /etc, walking library directories, following symlinks, glob-searching
// for shared objects — so the filesystem supports directories, regular files
// with extended attributes, symbolic links, and path-based lookup with link
// resolution.
//
// Extended attributes carry simulation-side metadata (for example a shared
// library's hidden ABI epoch) that is invisible to FEAM's prediction model
// but consumed by the ground-truth execution simulator.
package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"feam/internal/elfimg"
)

// FileKind distinguishes node types.
type FileKind int

const (
	KindDir FileKind = iota
	KindFile
	KindSymlink
)

func (k FileKind) String() string {
	switch k {
	case KindDir:
		return "dir"
	case KindFile:
		return "file"
	case KindSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileKind(%d)", int(k))
	}
}

// node is a single filesystem entry.
type node struct {
	kind     FileKind
	children map[string]*node // KindDir
	blob     *Blob            // KindFile
	target   string           // KindSymlink
	mode     uint32           // permission bits; 0755 dirs, 0644 files by default
	attrs    map[string]string
	// ver is the filesystem generation at which this node was last created
	// or mutated in place (content replacement, attribute change). TreeStamp
	// folds it into subtree fingerprints so a same-size content rewrite is
	// still visible without hashing file data.
	ver uint64
	// stampVal caches the node's subtree stamp; it is valid while stampEpoch
	// equals the filesystem's stamp epoch. Mutations invalidate the cache
	// along the mutated path's ancestor chain (or bump the epoch when the
	// path cannot be resolved), so a re-stamp after a single-file change
	// re-hashes that file and its ancestors while siblings are served from
	// their caches. Both fields are guarded by FS.stampMu.
	stampVal   uint64
	stampEpoch uint64
}

// Blob is the immutable content of a regular file: its bytes and their
// parsed-ELF memo, filled by the first ReadELF of any file that holds the
// blob. Bytes never change once a blob exists, so one blob may back files
// on many filesystems — every site of a fleet that installs the same
// library image — and they all share one parse.
type Blob struct {
	data []byte
	elf  elfimg.ParseMemo
}

// NewBlob wraps data as file content for WriteBlob. The blob owns data
// from then on: neither the caller nor any reader may modify it.
func NewBlob(data []byte) *Blob { return &Blob{data: data} }

// FS is an in-memory filesystem rooted at "/". The zero value is not usable;
// call New.
type FS struct {
	root *node
	// gen counts mutations (writes, removes, attribute and link changes).
	// Callers use it as a cheap change detector: equal generations mean no
	// mutation happened in between. See Generation.
	gen uint64
	// contentGen counts every mutation except extended-attribute updates.
	// See ContentGeneration.
	contentGen uint64
	// opHook, when set, runs before every public read or mutation with the
	// operation name and target path; a non-nil return fails the operation
	// with that error. It is the fault-injection seam: simulated sites fail
	// the way real parallel filesystems do, without special-casing any
	// caller. See SetOpHook.
	opHook func(op, path string) error
	// stamps memoizes TreeStamp results keyed by canonical subtree root.
	// Entries are invalidated by path containment on every mutation, so a
	// write under /lib64 drops the /lib64 stamp (and any enclosing one)
	// while leaving sibling subtrees' stamps valid. stampMu guards the memo
	// maps and the per-node stamp caches, and is held across a whole stamp
	// computation: concurrent TreeStamp readers are safe (they serialize),
	// but — like the rest of the filesystem — mutations must not race reads.
	stampMu sync.Mutex
	stamps  map[string]uint64
	// stampEpoch versions the per-node stamp caches: a node's cached stamp
	// is valid only while its stampEpoch matches. Bumping the epoch is the
	// wholesale invalidation used when a mutated path cannot be resolved.
	stampEpoch uint64
	// cachesLive records that some stamp or resolution cache has ever been
	// populated, letting mutations on never-stamped filesystems (testbed
	// construction does millions) skip invalidation entirely.
	cachesLive bool
	// resolved caches successful path resolutions for TreeStamp lookups
	// (path as given by the caller -> canonical path plus the resolved
	// node). Any mutation that can change how a path resolves — everything
	// except attribute updates is treated as such — clears it wholesale, so
	// a cached node pointer is always the node the path still resolves to
	// (attribute updates mutate nodes in place, never move them); the cache
	// exists to make repeated stamps of unchanged roots map-lookup cheap,
	// not to survive structural churn.
	resolved map[string]resolvedEntry
}

// resolvedEntry is one resolution-cache record: the canonical path and the
// node it resolved to.
type resolvedEntry struct {
	rp string
	n  *node
}

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	// The stamp epoch starts above zero so a fresh node's zero stampEpoch
	// always reads as an invalid cache.
	return &FS{root: &node{kind: KindDir, children: map[string]*node{}, mode: 0o755}, stampEpoch: 1}
}

// Generation returns the filesystem's mutation counter. It increases on
// every state change (file writes, directory creation, symlinks, removals,
// attribute changes), so two equal readings bracket a mutation-free window.
// Discovery caches key their fingerprints on it.
func (fs *FS) Generation() uint64 { return fs.gen }

// ContentGeneration is Generation minus extended-attribute updates: it
// advances on namespace and file-content mutations but not on SetAttr.
// Caches of derived filesystem facts that never read attributes (directory
// layouts, search-path membership, tool detection) key on it so they
// survive attribute churn like simulated banner updates.
func (fs *FS) ContentGeneration() uint64 { return fs.contentGen }

// mutated records one state change at p: the generation advances and any
// memoized tree stamp whose subtree contains p (or is contained by it) is
// dropped. p should be the path the mutation was addressed to; the parent
// directory is resolved so symlinked prefixes invalidate the canonical
// subtree. When the canonical location cannot be determined the whole memo
// is cleared — correctness over retention. attrOnly marks extended-
// attribute updates, which leave the content generation and the resolution
// cache intact (attributes cannot change how any path resolves).
func (fs *FS) mutated(p string, attrOnly bool) {
	fs.gen++
	if !attrOnly {
		fs.contentGen++
	}
	fs.stampMu.Lock()
	defer fs.stampMu.Unlock()
	if !fs.cachesLive {
		return
	}
	if !attrOnly {
		clear(fs.resolved)
	}
	q := ""
	if cp, err := clean(p); err == nil {
		if cp == "/" {
			q = "/"
		} else {
			dir, base := splitClean(cp)
			if n, rp, err := fs.lookup(dir, true); err == nil && n.kind == KindDir {
				q = path.Join(rp, base)
			}
		}
	}
	if q == "" {
		fs.stampEpoch++
		clear(fs.stamps)
		return
	}
	fs.clearNodeChain(q)
	for k := range fs.stamps {
		if pathContains(k, q) || pathContains(q, k) {
			delete(fs.stamps, k)
		}
	}
}

// clearNodeChain invalidates the per-node stamp caches along the canonical
// path q, from the root down to (and including) q's own node. Descendants
// of a renamed or attribute-touched node keep their caches: their subtree
// stamps fold only their own names and versions, which the mutation did not
// change. Caller holds stampMu.
func (fs *FS) clearNodeChain(q string) {
	n := fs.root
	n.stampEpoch = 0
	for _, name := range splitPath(q) {
		c, ok := n.children[name]
		if !ok {
			return
		}
		c.stampEpoch = 0
		n = c
	}
}

// pathContains reports whether the subtree rooted at a contains b (both
// cleaned absolute paths; a contains itself).
func pathContains(a, b string) bool {
	return a == "/" || a == b || strings.HasPrefix(b, a+"/")
}

// TreeStamp returns a fingerprint of the subtree rooted at p: its shape
// (names and kinds), file sizes, symlink targets, and per-node mutation
// versions. Equal stamps mean the subtree is unchanged; any create, write,
// remove, rename, or attribute change under p yields a new stamp. Stamps
// are memoized per canonical root and survive mutations elsewhere in the
// filesystem, which is what makes sharded discovery incremental: after a
// library upgrade only the affected directory's stamp recomputes.
func (fs *FS) TreeStamp(p string) (uint64, error) {
	s, _, err := fs.TreeStampVisit(p, nil)
	return s, err
}

// TreeStampVisit is TreeStamp fused with a subtree traversal: when the
// stamp has to be recomputed, visit (if non-nil) is invoked once per node
// in the subtree (order unspecified) with the node's parent directory and
// name. When the stamp is served from the memo no traversal happens and
// visit never runs; the visited return distinguishes the two. Callers use
// this to re-derive per-subtree indexes in the same pass that detects the
// subtree changed, instead of stamping and then walking the same nodes
// twice. visit runs with the filesystem's stamp lock held and must not
// call back into the filesystem.
func (fs *FS) TreeStampVisit(p string, visit func(dir, name string, info FileInfo)) (stamp uint64, visited bool, err error) {
	if err := fs.opErr("walk", p); err != nil {
		return 0, false, err
	}
	fs.stampMu.Lock()
	defer fs.stampMu.Unlock()
	ent, haveEnt := fs.resolved[p]
	if haveEnt {
		if s, ok := fs.stamps[ent.rp]; ok {
			return s, false, nil
		}
	}
	n, rp := ent.n, ent.rp
	if !haveEnt {
		var lerr error
		n, rp, lerr = fs.lookup(p, true)
		if lerr != nil {
			return 0, false, &PathError{Op: "stamp", Path: p, Err: lerr}
		}
	}
	s := stampNode(path.Dir(rp), path.Base(rp), n, visit, fs.stampEpoch)
	if fs.stamps == nil {
		fs.stamps = map[string]uint64{}
	}
	if fs.resolved == nil {
		fs.resolved = map[string]resolvedEntry{}
	}
	fs.stamps[rp] = s
	fs.resolved[p] = resolvedEntry{rp: rp, n: n}
	fs.cachesLive = true
	return s, true, nil
}

// FNV-1a, inlined: stamping is on the survey hot path, and going through
// hash.Hash costs an interface dispatch and a byte-slice conversion per
// field, which profiles as a large share of an incremental re-survey.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds a string into the hash eight bytes per multiply round
// (instead of one): entry names are hashed for every node of a re-stamped
// subtree, so the byte-wise schedule showed up in fleet re-survey profiles.
func fnvString(h uint64, s string) uint64 {
	for len(s) >= 8 {
		v := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (h ^ v) * fnvPrime64
		s = s[8:]
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvUint64 folds a 64-bit value into the hash in two rounds (halves
// instead of bytes): stamping mixes two of these per node, and the byte-wise
// schedule was measurable across a fleet re-survey. Two multiply rounds
// disperse counters and sizes just as well for fingerprinting purposes.
func fnvUint64(h, v uint64) uint64 {
	h = (h ^ (v & 0xffffffff)) * fnvPrime64
	return (h ^ (v >> 32)) * fnvPrime64
}

// stampNode folds one node (and, for directories, its children) into a
// subtree stamp, forwarding each node to visit when set. Children are
// combined commutatively (a wrapping sum of their subtree stamps) so no
// per-directory name sort or allocation is needed; each child's stamp
// covers its own name, which keeps renames visible. dir is the node's
// parent directory — child path prefixes are only materialized for
// directories, so a visit that filters by name stays allocation-light.
// Nodes whose cached stamp is still valid under epoch are not re-hashed;
// with a visitor they are traversed visit-only, so the callback still sees
// every node of the subtree. Caller holds stampMu.
func stampNode(dir, name string, n *node, visit func(dir, name string, info FileInfo), epoch uint64) uint64 {
	if n.stampEpoch == epoch {
		if visit != nil {
			visitSubtree(dir, name, n, visit)
		}
		return n.stampVal
	}
	h := fnvString(fnvOffset64, name)
	h = (h ^ uint64(n.kind)) * fnvPrime64
	h = fnvUint64(h, n.ver)
	if visit != nil {
		// Path is deliberately left empty: joining dir and name for every
		// node would defeat the single-pass design, and most visitors
		// filter by name before caring about the full path.
		fi := FileInfo{Name: name, Kind: n.kind, Target: n.target}
		if n.kind == KindFile {
			fi.Size = len(n.blob.data)
		}
		visit(dir, name, fi)
	}
	switch n.kind {
	case KindFile:
		h = fnvUint64(h, uint64(len(n.blob.data)))
	case KindSymlink:
		h = fnvString(h, n.target)
	case KindDir:
		var sub string
		if visit != nil && len(n.children) > 0 {
			sub = path.Join(dir, name)
		}
		var sum uint64
		for cname, c := range n.children {
			sum += stampNode(sub, cname, c, visit, epoch)
		}
		h = fnvUint64(h, sum)
	}
	n.stampVal, n.stampEpoch = h, epoch
	return h
}

// visitSubtree replays the visit callbacks for a subtree served from the
// per-node stamp cache: the same traversal as stampNode, minus the hashing.
func visitSubtree(dir, name string, n *node, visit func(dir, name string, info FileInfo)) {
	fi := FileInfo{Name: name, Kind: n.kind, Target: n.target}
	if n.kind == KindFile {
		fi.Size = len(n.blob.data)
	}
	visit(dir, name, fi)
	if n.kind == KindDir && len(n.children) > 0 {
		sub := path.Join(dir, name)
		for cname, c := range n.children {
			visitSubtree(sub, cname, c, visit)
		}
	}
}

// SetOpHook installs (or, with nil, clears) the fault-injection hook. The
// hook is consulted at the top of every public read and mutation; returning
// an error fails the operation without touching state. Hooks must be safe
// for concurrent use when the filesystem is shared across goroutines.
func (fs *FS) SetOpHook(h func(op, path string) error) { fs.opHook = h }

// opErr consults the hook for one operation, wrapping any injected error
// in the operation's PathError so callers see ordinary filesystem failures.
func (fs *FS) opErr(op, path string) error {
	if fs.opHook == nil {
		return nil
	}
	if err := fs.opHook(op, path); err != nil {
		return &PathError{Op: op, Path: path, Err: err}
	}
	return nil
}

// PathError describes a failed filesystem operation.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return e.Op + " " + e.Path + ": " + e.Err.Error() }
func (e *PathError) Unwrap() error { return e.Err }

// Sentinel errors.
var (
	ErrNotExist    = fmt.Errorf("no such file or directory")
	ErrExist       = fmt.Errorf("file exists")
	ErrNotDir      = fmt.Errorf("not a directory")
	ErrIsDir       = fmt.Errorf("is a directory")
	ErrLinkLoop    = fmt.Errorf("too many levels of symbolic links")
	ErrInvalidPath = fmt.Errorf("invalid path")
)

const maxLinkDepth = 40

// clean canonicalizes a path to an absolute, slash-separated form. A path
// already in that form, as every path a fleet build writes is, comes back
// as it is, without a path.Clean pass.
func clean(p string) (string, error) {
	if p == "" {
		return "", ErrInvalidPath
	}
	if isCleanAbs(p) {
		return p, nil
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p), nil
}

// splitClean is path.Split for a clean absolute path, without its trailing
// slash: dir is clean too ("/" for a top-level name), so looking it up
// takes the clean-path walker.
func splitClean(cp string) (dir, base string) {
	i := strings.LastIndexByte(cp, '/')
	if i == 0 {
		return "/", cp[1:]
	}
	return cp[:i], cp[i+1:]
}

// splitPath returns the path components of a cleaned absolute path.
func splitPath(p string) []string {
	p = strings.Trim(p, "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// lookup walks to the node for p and returns it with its canonical path.
// When followLast is true, a symlink in the final position is resolved;
// intermediate symlinks are always resolved.
func (fs *FS) lookup(p string, followLast bool) (*node, string, error) {
	n, sib, ok, err := fs.walkClean(p, followLast)
	switch {
	case !ok:
		return fs.walkGeneral(p, followLast)
	case err != nil:
		return nil, "", err
	case sib != "":
		return n, p[:strings.LastIndexByte(p, '/')+1] + sib, nil
	}
	return n, p, nil
}

// lookupNode is lookup(p, true) for callers that need only the node, so a
// clean path resolves without building its canonical path.
func (fs *FS) lookupNode(p string) (*node, error) {
	n, _, ok, err := fs.walkClean(p, true)
	if !ok {
		n, _, err = fs.walkGeneral(p, true)
	}
	return n, err
}

// walkGeneral cleans p and walks it, resolving every symlink on the way.
func (fs *FS) walkGeneral(p string, followLast bool) (*node, string, error) {
	cp, err := clean(p)
	if err != nil {
		return nil, "", err
	}
	return fs.lookupFrom(fs.root, "/", splitPath(cp), followLast, 0)
}

// walkClean resolves a clean absolute path — no empty, "." or ".."
// component and no trailing slash — without allocating. With followLast it
// follows a final symlink whose target is a plain name in the same
// directory, the libfoo.so.1 -> libfoo.so.1.2.3 layout of every installed
// library, and returns that name as sib. Anything else (an unclean or
// relative path, an intermediate symlink, another kind of link target)
// reports ok=false, and the caller uses the general walker, which gives
// the same answer. With ok=true, err is the walk's final error.
func (fs *FS) walkClean(p string, followLast bool) (n *node, sib string, ok bool, err error) {
	if !isCleanAbs(p) {
		return nil, "", false, nil
	}
	cur := fs.root
	for rest := p[1:]; rest != ""; {
		name := rest
		last := true
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			name, rest, last = rest[:i], rest[i+1:], false
		} else {
			rest = ""
		}
		if cur.kind != KindDir {
			return nil, "", true, ErrNotDir
		}
		child, found := cur.children[name]
		if !found {
			return nil, "", true, ErrNotExist
		}
		if child.kind == KindSymlink && (!last || followLast) {
			if !last {
				return nil, "", false, nil
			}
			return followSibling(cur, child)
		}
		cur = child
	}
	return cur, "", true, nil
}

// followSibling resolves link, a final symlink in dir, when its target is
// a plain name in dir that is not itself a link, and returns that name as
// sib. Any other target reports ok=false, for the general walker.
func followSibling(dir, link *node) (n *node, sib string, ok bool, err error) {
	if !isPlainName(link.target) {
		return nil, "", false, nil
	}
	target, found := dir.children[link.target]
	if !found {
		return nil, "", true, ErrNotExist
	}
	if target.kind == KindSymlink {
		return nil, "", false, nil
	}
	return target, link.target, true, nil
}

// Dir is a directory resolved once for lookups of the names in it: a
// dynamic-loader search directory, searched for every library of a link
// closure. The zero value is not usable; call FS.OpenDir. A Dir sees the
// directory as it was when opened, so it must not outlive a mutation of
// the filesystem.
type Dir struct {
	fs   *FS
	path string // the directory as given, for joined paths
	// concat records that path is clean, absolute and not the root, so
	// joining a plain name to it is a concatenation.
	concat bool
	n      *node  // the resolved directory; nil when path does not resolve to one
	real   string // n's canonical path
	err    error  // why path does not resolve to a directory
}

// OpenDir resolves dir for lookups of the names in it. dir is cleaned the
// way path.Join(dir, name) cleans it, taken from the root like every vfs
// path, and symlinks are followed. OpenDir does not consult the fault
// hook; ReadELF does, once per name. A dir that does not resolve to a
// directory gives a handle in which every name misses.
func (fs *FS) OpenDir(dir string) Dir {
	d := Dir{fs: fs, path: dir, concat: dir != "/" && isCleanAbs(dir)}
	n, rp, err := fs.lookup(mustClean(dir), true)
	switch {
	case err != nil:
		d.err = err
	case n.kind != KindDir:
		d.err = ErrNotDir
	default:
		d.n, d.real = n, rp
	}
	return d
}

// Join returns path.Join(dir, name) for the directory as given to
// OpenDir: the path that FS.ReadELF would read name at.
func (d *Dir) Join(name string) string {
	if d.concat && isPlainName(name) {
		return d.path + "/" + name
	}
	return path.Join(d.path, name)
}

// ReadELF is FS.ReadELF(d.Join(name)) through the handle: it gives the
// same File, or a failure with the same cause, and also the file's real
// path, which ResolvePath would give. A plain name costs one lookup among
// the directory's children, and a final symlink to a sibling
// (libmpi.so.0 -> libmpi.so.0.0.1) one more; any other name or link goes
// to the general walker. The "read" fault hook runs once per call with
// the joined path, as FS.ReadELF runs it, and that path is built only
// when a hook is installed, so a miss builds no string. Failures carry
// their cause, not the path, except a failure the hook injects.
func (d *Dir) ReadELF(name string) (f *elfimg.File, realPath string, err error) {
	var p string
	if d.fs.opHook != nil {
		p = d.Join(name)
		if err := d.fs.opErr("read", p); err != nil {
			return nil, "", err
		}
	}
	n, leaf, ok, err := d.lookup(name)
	if !ok {
		if p == "" {
			p = d.Join(name)
		}
		n, realPath, err = d.fs.lookup(p, true)
	}
	if err != nil {
		return nil, "", err
	}
	if n.kind != KindFile {
		return nil, "", ErrIsDir
	}
	if f, err = n.blob.elf.Parse(n.blob.data); err != nil {
		return nil, "", err
	}
	if realPath == "" {
		dir := d.real
		if dir == "/" {
			dir = ""
		}
		realPath = dir + "/" + leaf
	}
	return f, realPath, nil
}

// lookup finds a plain name among the directory's children, following a
// final sibling symlink the way walkClean does, and returns the node with
// its name in the directory's canonical path. Any other name or link
// reports ok=false, for the general walker.
func (d *Dir) lookup(name string) (n *node, leaf string, ok bool, err error) {
	if !isPlainName(name) {
		return nil, "", false, nil
	}
	if d.n == nil {
		return nil, "", true, d.err
	}
	child, found := d.n.children[name]
	if !found {
		return nil, "", true, ErrNotExist
	}
	if child.kind == KindSymlink {
		return followSibling(d.n, child)
	}
	return child, name, true, nil
}

// isCleanAbs reports whether p is absolute and already in path.Clean form.
func isCleanAbs(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	if p == "/" {
		return true
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		switch p[start:i] {
		case "", ".", "..":
			return false
		}
		start = i + 1
	}
	return true
}

// isPlainName reports whether s is one path component naming a directory
// entry: non-empty, slash-free, and neither "." nor "..".
func isPlainName(s string) bool {
	return s != "" && s != "." && s != ".." && strings.IndexByte(s, '/') < 0
}

func (fs *FS) lookupFrom(cur *node, curPath string, parts []string, followLast bool, depth int) (*node, string, error) {
	if depth > maxLinkDepth {
		return nil, "", ErrLinkLoop
	}
	for i, name := range parts {
		if cur.kind != KindDir {
			return nil, "", ErrNotDir
		}
		child, ok := cur.children[name]
		if !ok {
			return nil, "", ErrNotExist
		}
		childPath := path.Join(curPath, name)
		last := i == len(parts)-1
		if child.kind == KindSymlink && (!last || followLast) {
			targetPath := child.target
			if !strings.HasPrefix(targetPath, "/") {
				targetPath = path.Join(curPath, targetPath)
			}
			resolved, rp, err := fs.lookupFrom(fs.root, "/", splitPath(path.Clean(targetPath)), true, depth+1)
			if err != nil {
				return nil, "", err
			}
			if last {
				return resolved, rp, nil
			}
			cur, curPath = resolved, rp
			continue
		}
		cur, curPath = child, childPath
	}
	return cur, curPath, nil
}

// parentOf returns the directory node that should contain the final element
// of p, along with that element's name.
func (fs *FS) parentOf(p string) (*node, string, error) {
	cp, err := clean(p)
	if err != nil {
		return nil, "", err
	}
	if cp == "/" {
		return nil, "", &PathError{Op: "create", Path: p, Err: ErrExist}
	}
	dir, base := splitClean(cp)
	parent, err := fs.lookupNode(dir)
	if err != nil {
		return nil, "", &PathError{Op: "create", Path: p, Err: err}
	}
	if parent.kind != KindDir {
		return nil, "", &PathError{Op: "create", Path: p, Err: ErrNotDir}
	}
	return parent, base, nil
}

// Mkdir creates a single directory. The parent must exist.
func (fs *FS) Mkdir(p string) error {
	if err := fs.opErr("mkdir", p); err != nil {
		return err
	}
	parent, base, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	if _, ok := parent.children[base]; ok {
		return &PathError{Op: "mkdir", Path: p, Err: ErrExist}
	}
	nn := &node{kind: KindDir, children: map[string]*node{}, mode: 0o755}
	parent.children[base] = nn
	fs.mutated(p, false)
	nn.ver = fs.gen
	return nil
}

// MkdirAll creates a directory and any missing parents. Existing directories
// are left untouched.
func (fs *FS) MkdirAll(p string) error {
	if err := fs.opErr("mkdir", p); err != nil {
		return err
	}
	return fs.mkdirAll(p)
}

// mkdirAll is MkdirAll without the fault hook, for internal use by
// operations that already consulted the hook under their own name.
func (fs *FS) mkdirAll(p string) error {
	cp, err := clean(p)
	if err != nil {
		return &PathError{Op: "mkdir", Path: p, Err: err}
	}
	// Until a symlink leads elsewhere, the directory walked so far is a
	// prefix of cp, so a child's path is cut from cp rather than joined.
	cur, curPath, onPath := fs.root, "/", true
	for start := 1; start < len(cp); {
		end := strings.IndexByte(cp[start:], '/')
		if end < 0 {
			end = len(cp)
		} else {
			end += start
		}
		name, childPath := cp[start:end], cp[:end]
		start = end + 1
		if !onPath {
			childPath = path.Join(curPath, name)
		}
		child, ok := cur.children[name]
		if !ok {
			child = &node{kind: KindDir, children: map[string]*node{}, mode: 0o755}
			cur.children[name] = child
			fs.mutated(childPath, false)
			child.ver = fs.gen
		} else if child.kind == KindSymlink {
			resolved, rp, err := fs.lookup(childPath, true)
			if err != nil {
				return &PathError{Op: "mkdir", Path: p, Err: err}
			}
			child, childPath, onPath = resolved, rp, false
		}
		if child.kind != KindDir {
			return &PathError{Op: "mkdir", Path: p, Err: ErrNotDir}
		}
		cur, curPath = child, childPath
	}
	return nil
}

// WriteFile creates or replaces a regular file, creating parents as needed.
// The file gets its own copy of data.
func (fs *FS) WriteFile(p string, data []byte) error {
	buf := make([]byte, len(data))
	copy(buf, data)
	return fs.WriteBlob(p, NewBlob(buf))
}

// WriteBlob is WriteFile without the copy: the file's content is b
// itself, shared with every other file that holds b. Like WriteFile it
// installs a new file node at a new generation, so stamps and every cache
// keyed on them see a write even when b is the content p already had.
func (fs *FS) WriteBlob(p string, b *Blob) error {
	if err := fs.opErr("write", p); err != nil {
		return err
	}
	cp, err := clean(p)
	if err != nil {
		return &PathError{Op: "write", Path: p, Err: err}
	}
	dir, _ := splitClean(cp)
	if err := fs.mkdirAll(dir); err != nil {
		return err
	}
	parent, base, err := fs.parentOf(cp)
	if err != nil {
		return err
	}
	if existing, ok := parent.children[base]; ok && existing.kind == KindDir {
		return &PathError{Op: "write", Path: p, Err: ErrIsDir}
	}
	nn := &node{kind: KindFile, blob: b, mode: 0o644}
	parent.children[base] = nn
	fs.mutated(cp, false)
	nn.ver = fs.gen
	return nil
}

// WriteString is WriteFile for string content.
func (fs *FS) WriteString(p, content string) error { return fs.WriteFile(p, []byte(content)) }

// ReadFileShared returns the file's contents WITHOUT copying. The returned
// slice aliases the stored blob, which other files and other filesystems
// may hold too: callers must treat it as read-only. It exists for hot
// read-mostly paths (the dynamic-loader simulation parses multi-megabyte
// libraries thousands of times); everything else should use ReadFile.
func (fs *FS) ReadFileShared(p string) ([]byte, error) {
	n, err := fs.fileNode(p)
	if err != nil {
		return nil, err
	}
	return n.blob.data, nil
}

// fileNode is the common head of every file read: one "read" fault-hook
// call, then resolution of p to a regular file.
func (fs *FS) fileNode(p string) (*node, error) {
	if err := fs.opErr("read", p); err != nil {
		return nil, err
	}
	n, err := fs.lookupNode(p)
	if err != nil {
		return nil, &PathError{Op: "read", Path: p, Err: err}
	}
	if n.kind != KindFile {
		return nil, &PathError{Op: "read", Path: p, Err: ErrIsDir}
	}
	return n, nil
}

// ReadELF returns the parsed ELF image of the regular file at p, following
// symlinks. The parse is memoized on the file's blob: the first call runs
// elfimg.Parse, and every later call for any file holding the same blob
// returns the same *elfimg.File (or the same parse failure). WriteFile
// gives a file a new blob, so it parses afresh; WriteBlob shares the
// blob's memo; SetAttr and Rename keep it. The returned File is shared
// and must be treated as read-only, like ReadFileShared's bytes. The
// fault hook sees one "read" per call, memoized or not.
func (fs *FS) ReadELF(p string) (*elfimg.File, error) {
	n, err := fs.fileNode(p)
	if err != nil {
		return nil, err
	}
	f, err := n.blob.elf.Parse(n.blob.data)
	if err != nil {
		return nil, &PathError{Op: "parse", Path: p, Err: err}
	}
	return f, nil
}

// ReadFile returns the contents of the file at p, following symlinks.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	n, err := fs.fileNode(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(n.blob.data))
	copy(out, n.blob.data)
	return out, nil
}

// Symlink creates a symbolic link at linkPath pointing to target. The target
// need not exist.
func (fs *FS) Symlink(target, linkPath string) error {
	if err := fs.opErr("symlink", linkPath); err != nil {
		return err
	}
	dir, _ := splitClean(mustClean(linkPath))
	if err := fs.mkdirAll(dir); err != nil {
		return err
	}
	parent, base, err := fs.parentOf(linkPath)
	if err != nil {
		return err
	}
	if _, ok := parent.children[base]; ok {
		return &PathError{Op: "symlink", Path: linkPath, Err: ErrExist}
	}
	nn := &node{kind: KindSymlink, target: target, mode: 0o777}
	parent.children[base] = nn
	fs.mutated(linkPath, false)
	nn.ver = fs.gen
	return nil
}

func mustClean(p string) string {
	cp, err := clean(p)
	if err != nil {
		return "/"
	}
	return cp
}

// Remove deletes the entry at p (without following a final symlink).
// Directories must be empty.
func (fs *FS) Remove(p string) error {
	if err := fs.opErr("remove", p); err != nil {
		return err
	}
	parent, base, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	child, ok := parent.children[base]
	if !ok {
		return &PathError{Op: "remove", Path: p, Err: ErrNotExist}
	}
	if child.kind == KindDir && len(child.children) > 0 {
		return &PathError{Op: "remove", Path: p, Err: fmt.Errorf("directory not empty")}
	}
	delete(parent.children, base)
	fs.mutated(p, false)
	return nil
}

// RemoveAll deletes the entry at p and, for directories, its whole subtree.
// A missing entry is not an error (matching os.RemoveAll).
func (fs *FS) RemoveAll(p string) error {
	if err := fs.opErr("removeall", p); err != nil {
		return err
	}
	parent, base, err := fs.parentOf(p)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return err
	}
	if _, ok := parent.children[base]; !ok {
		return nil
	}
	delete(parent.children, base)
	fs.mutated(p, false)
	return nil
}

// Rename atomically moves the entry at oldp (a file, symlink, or whole
// directory subtree) to newp, creating newp's parents as needed. The
// destination must not already exist — the transactional-staging commit
// protocol removes any stale destination first, then renames, so a
// half-written temp directory can never silently merge into live state.
func (fs *FS) Rename(oldp, newp string) error {
	if err := fs.opErr("rename", oldp); err != nil {
		return err
	}
	oparent, obase, err := fs.parentOf(oldp)
	if err != nil {
		return err
	}
	moving, ok := oparent.children[obase]
	if !ok {
		return &PathError{Op: "rename", Path: oldp, Err: ErrNotExist}
	}
	cp, err := clean(newp)
	if err != nil {
		return &PathError{Op: "rename", Path: newp, Err: err}
	}
	dir, _ := splitClean(cp)
	if err := fs.mkdirAll(dir); err != nil {
		return err
	}
	nparent, nbase, err := fs.parentOf(cp)
	if err != nil {
		return err
	}
	if _, exists := nparent.children[nbase]; exists {
		return &PathError{Op: "rename", Path: newp, Err: ErrExist}
	}
	if nparent == moving || subtreeContains(moving, nparent) {
		return &PathError{Op: "rename", Path: newp, Err: ErrInvalidPath}
	}
	delete(oparent.children, obase)
	fs.mutated(oldp, false)
	nparent.children[nbase] = moving
	fs.mutated(cp, false)
	return nil
}

// subtreeContains reports whether needle is a node inside root's subtree.
func subtreeContains(root, needle *node) bool {
	if root.kind != KindDir {
		return false
	}
	for _, child := range root.children {
		if child == needle || subtreeContains(child, needle) {
			return true
		}
	}
	return false
}

// FileInfo describes a filesystem entry.
type FileInfo struct {
	Name string
	Path string
	Kind FileKind
	Size int
	// Target is the link destination for symlinks.
	Target string
}

// Stat returns information about the entry at p, following symlinks.
func (fs *FS) Stat(p string) (FileInfo, error) {
	n, rp, err := fs.lookup(p, true)
	if err != nil {
		return FileInfo{}, &PathError{Op: "stat", Path: p, Err: err}
	}
	return infoFor(n, rp), nil
}

// Lstat returns information about the entry at p without following a final
// symlink.
func (fs *FS) Lstat(p string) (FileInfo, error) {
	n, rp, err := fs.lookup(p, false)
	if err != nil {
		return FileInfo{}, &PathError{Op: "lstat", Path: p, Err: err}
	}
	return infoFor(n, rp), nil
}

func infoFor(n *node, p string) FileInfo {
	fi := FileInfo{Name: path.Base(p), Path: p, Kind: n.kind, Target: n.target}
	if n.kind == KindFile {
		fi.Size = len(n.blob.data)
	}
	return fi
}

// Exists reports whether p resolves to an existing entry.
func (fs *FS) Exists(p string) bool {
	_, err := fs.lookupNode(p)
	return err == nil
}

// IsDir reports whether p resolves to a directory.
func (fs *FS) IsDir(p string) bool {
	n, err := fs.lookupNode(p)
	return err == nil && n.kind == KindDir
}

// ReadDir lists a directory's entries sorted by name.
func (fs *FS) ReadDir(p string) ([]FileInfo, error) {
	n, rp, err := fs.lookup(p, true)
	if err != nil {
		return nil, &PathError{Op: "readdir", Path: p, Err: err}
	}
	if n.kind != KindDir {
		return nil, &PathError{Op: "readdir", Path: p, Err: ErrNotDir}
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FileInfo, 0, len(names))
	for _, name := range names {
		out = append(out, infoFor(n.children[name], path.Join(rp, name)))
	}
	return out, nil
}

// ResolvePath returns the canonical path p resolves to after following all
// symlinks (the realpath).
func (fs *FS) ResolvePath(p string) (string, error) {
	_, rp, err := fs.lookup(p, true)
	if err != nil {
		return "", &PathError{Op: "resolve", Path: p, Err: err}
	}
	return rp, nil
}

// SetAttr attaches an extended attribute to the entry at p (following
// symlinks). Attributes carry simulation-side metadata.
func (fs *FS) SetAttr(p, key, value string) error {
	if err := fs.opErr("setattr", p); err != nil {
		return err
	}
	n, rp, err := fs.lookup(p, true)
	if err != nil {
		return &PathError{Op: "setattr", Path: p, Err: err}
	}
	if n.attrs == nil {
		n.attrs = map[string]string{}
	}
	n.attrs[key] = value
	fs.mutated(rp, true)
	n.ver = fs.gen
	return nil
}

// Attrs returns a copy of all extended attributes on the entry at p
// (following symlinks); nil when the entry is missing or has none.
func (fs *FS) Attrs(p string) map[string]string {
	n, err := fs.lookupNode(p)
	if err != nil || len(n.attrs) == 0 {
		return nil
	}
	out := make(map[string]string, len(n.attrs))
	for k, v := range n.attrs {
		out[k] = v
	}
	return out
}

// Attr reads an extended attribute; ok is false when absent.
func (fs *FS) Attr(p, key string) (value string, ok bool) {
	n := fs.resolveCached(p)
	if n == nil || n.attrs == nil {
		return "", false
	}
	value, ok = n.attrs[key]
	return value, ok
}

// resolveCached resolves p through the resolution cache, falling back to
// (and priming the cache with) a full lookup. Only successful resolutions
// are cached; structural mutations clear the cache wholesale, so a cached
// node is always the node p still resolves to.
func (fs *FS) resolveCached(p string) *node {
	fs.stampMu.Lock()
	ent, ok := fs.resolved[p]
	fs.stampMu.Unlock()
	if ok {
		return ent.n
	}
	n, rp, err := fs.lookup(p, true)
	if err != nil {
		return nil
	}
	fs.stampMu.Lock()
	if fs.resolved == nil {
		fs.resolved = map[string]resolvedEntry{}
	}
	fs.resolved[p] = resolvedEntry{rp: rp, n: n}
	fs.cachesLive = true
	fs.stampMu.Unlock()
	return n
}

// WalkFunc visits an entry during Walk. Returning SkipDir for a directory
// prunes its subtree.
type WalkFunc func(p string, info FileInfo) error

// SkipDir prunes a directory subtree during Walk.
var SkipDir = fmt.Errorf("skip this directory")

// Walk traverses the tree rooted at p depth-first in sorted order, calling
// fn for every entry (symlinks are reported, not followed).
func (fs *FS) Walk(p string, fn WalkFunc) error {
	n, rp, err := fs.lookup(p, true)
	if err != nil {
		return &PathError{Op: "walk", Path: p, Err: err}
	}
	return walk(n, rp, fn)
}

func walk(n *node, p string, fn WalkFunc) error {
	if err := fn(p, infoFor(n, p)); err != nil {
		if err == SkipDir && n.kind == KindDir {
			return nil
		}
		return err
	}
	if n.kind != KindDir {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := walk(n.children[name], path.Join(p, name), fn); err != nil {
			if err == SkipDir {
				continue
			}
			return err
		}
	}
	return nil
}

// Glob returns the paths of all files whose base name matches pattern
// (path.Match syntax) anywhere under root, emulating the `locate`/`find
// -name` searches FEAM performs. Results are sorted.
func (fs *FS) Glob(root, pattern string) ([]string, error) {
	if _, err := path.Match(pattern, ""); err != nil {
		return nil, err
	}
	var out []string
	err := fs.Walk(root, func(p string, info FileInfo) error {
		if info.Kind == KindDir {
			return nil
		}
		if ok, _ := path.Match(pattern, info.Name); ok {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
