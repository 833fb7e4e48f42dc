// Package sitemodel represents a simulated computing site: the discovery
// surface FEAM's Environment Discovery Component probes (filesystem,
// environment variables, /proc and /etc metadata, user-environment
// management tools) plus the ground-truth attributes the execution simulator
// needs (CPU feature level, broken MPI stack combinations, hidden library
// ABI epochs carried as vfs extended attributes).
//
// Nothing in this package interprets MPI or compiler semantics; sites are
// byte-level hosts. Higher layers (mpistack, toolchain, testbed) install
// concrete software onto them.
package sitemodel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"feam/internal/elfimg"
	"feam/internal/envmgmt"
	"feam/internal/libver"
	"feam/internal/vfs"
)

// Arch describes a site's hardware architecture.
type Arch struct {
	Machine elfimg.Machine
	Class   elfimg.Class
	// CPUName is the marketing name surfaced by uname -p / /proc/cpuinfo.
	CPUName string
	// FeatureLevel is the ground-truth ISA extension level of the CPU
	// (think SSE2 < SSSE3 < SSE4). Binaries compiled with aggressive
	// vectorization at a high-level site trap with floating-point/illegal-
	// instruction errors on lower-level CPUs. Invisible to FEAM.
	FeatureLevel int
}

// Bits returns the word size of the architecture.
func (a Arch) Bits() int { return a.Class.Bits() }

// OSInfo describes the operating system installation.
type OSInfo struct {
	// Distro is the distribution name, e.g. "CentOS" or
	// "Red Hat Enterprise Linux Server".
	Distro string
	// Version is the distribution release, e.g. "5.6".
	Version string
	// Kernel is the kernel release string, e.g. "2.6.18-238.el5".
	Kernel string
	// ReleaseFile is the /etc file that identifies the distribution
	// ("/etc/redhat-release", "/etc/SuSE-release", ...).
	ReleaseFile string
}

// StackRecord is the ground-truth registration of an installed MPI stack.
// FEAM never reads this registry directly — it must rediscover stacks from
// module files and filesystem contents — but the execution simulator
// consults it to decide whether a selected stack actually functions.
type StackRecord struct {
	// Key is the canonical name, e.g. "openmpi-1.4.3-intel".
	Key string
	// Impl is the MPI implementation name in lower case: "openmpi",
	// "mpich2", "mvapich2".
	Impl string
	// ImplVersion is the release of the implementation.
	ImplVersion string
	// CompilerFamily is "gnu", "intel", or "pgi"; CompilerVersion its
	// release.
	CompilerFamily  string
	CompilerVersion string
	// Prefix is the installation root, e.g. /opt/openmpi-1.4.3-intel.
	Prefix string
	// Interconnect is "ethernet" or "infiniband".
	Interconnect string
	// ABIEpoch is the ground-truth binary-interface generation of the MPI
	// libraries; applications built against a newer epoch malfunction on
	// older ones when they use advanced MPI features.
	ABIEpoch int
	// Broken marks a misconfigured stack combination: advertised by the
	// site but unable to run any program (the failure mode §III.B of the
	// paper attributes to administrator error).
	Broken bool
	// StaticLibs reports whether the installation ships static archives
	// (.a); without them users cannot prepare statically linked binaries
	// for migration (§VI.C).
	StaticLibs bool
}

// Site is one simulated computing environment.
type Site struct {
	// Name is the short site name ("ranger", "forge", ...).
	Name string
	// Description is the human-readable identity from Table II.
	Description string
	// SystemType is "MPP", "SMP", "Hybrid", or "Cluster".
	SystemType string
	// Cores is the advertised core count.
	Cores int

	Arch  Arch
	OS    OSInfo
	Glibc libver.Version
	// Interconnects available at the site ("ethernet", "infiniband").
	Interconnects []string

	// Stacks is the ground-truth MPI stack registry (see StackRecord).
	Stacks []*StackRecord

	// SysErrRate is the ground-truth probability that a job at this site
	// hits a persistent system error (daemon spawn failure, communication
	// timeout) that survives the five retry attempts. Invisible to FEAM.
	SysErrRate float64

	// Images is the store of built library images the site installs
	// from, shared by every site of its fleet; nil builds every image
	// afresh.
	Images *ImageStore

	fs  *vfs.FS
	env map[string]string

	// envFP memoizes EnvFingerprint between environment mutations. The
	// flag and value are atomics only so a reader racing a (contract-
	// violating) unlocked mutation degrades to a recompute instead of a
	// torn read; the env map itself still requires external serialization.
	envFP      atomic.Uint64
	envFPValid atomic.Bool
	// envTool memoizes EnvTool detection per filesystem content
	// generation (same racing-reader rationale as envFP).
	envTool atomic.Pointer[envToolMemo]
}

// New creates an empty site with a standard directory skeleton and default
// environment.
func New(name string, arch Arch, os OSInfo, glibc libver.Version) *Site {
	s := &Site{
		Name:  name,
		Arch:  arch,
		OS:    os,
		Glibc: glibc,
		fs:    vfs.New(),
		env:   map[string]string{},
	}
	for _, d := range []string{"/lib", "/usr/lib", "/etc", "/proc", "/tmp", "/home/user", "/opt", "/usr/bin", "/bin"} {
		mustMkdir(s.fs, d)
	}
	if arch.Class == elfimg.Class64 {
		mustMkdir(s.fs, "/lib64")
		mustMkdir(s.fs, "/usr/lib64")
	}
	s.env["PATH"] = "/usr/bin:/bin"
	s.env["HOME"] = "/home/user"
	s.writeSystemFiles()
	return s
}

func mustMkdir(fs *vfs.FS, dir string) {
	if err := fs.MkdirAll(dir); err != nil {
		panic(fmt.Sprintf("sitemodel: cannot create %s: %v", dir, err))
	}
}

// writeSystemFiles populates /proc/version, the distribution release file,
// and /proc/cpuinfo — the files the EDC reads.
func (s *Site) writeSystemFiles() {
	procVersion := fmt.Sprintf("Linux version %s (builder@%s) (gcc version unknown) #1 SMP\n",
		s.OS.Kernel, s.Name)
	if err := s.fs.WriteString("/proc/version", procVersion); err != nil {
		panic(err)
	}
	release := fmt.Sprintf("%s release %s\n", s.OS.Distro, s.OS.Version)
	if s.OS.ReleaseFile != "" {
		if err := s.fs.WriteString(s.OS.ReleaseFile, release); err != nil {
			panic(err)
		}
	}
	cpuinfo := fmt.Sprintf("processor\t: 0\nmodel name\t: %s\nflags\t: level%d\n",
		s.Arch.CPUName, s.Arch.FeatureLevel)
	if err := s.fs.WriteString("/proc/cpuinfo", cpuinfo); err != nil {
		panic(err)
	}
	// uname surface: machine and processor strings.
	uname := fmt.Sprintf("%s %s %s", unameMachine(s.Arch), s.OS.Kernel, s.Arch.CPUName)
	if err := s.fs.WriteString("/proc/sys/kernel/uname", uname); err != nil {
		panic(err)
	}
}

func unameMachine(a Arch) string {
	switch {
	case a.Machine == elfimg.EMX8664:
		return "x86_64"
	case a.Machine == elfimg.EM386:
		return "i686"
	case a.Machine == elfimg.EMPPC64:
		return "ppc64"
	case a.Machine == elfimg.EMPPC:
		return "ppc"
	default:
		return "unknown"
	}
}

// UnameMachine returns the `uname -p` processor string for the site.
func (s *Site) UnameMachine() string { return unameMachine(s.Arch) }

// FS exposes the site filesystem (envmgmt.Environment).
func (s *Site) FS() *vfs.FS { return s.fs }

// Getenv reads an environment variable (envmgmt.Environment).
func (s *Site) Getenv(key string) string { return s.env[key] }

// Setenv sets an environment variable (envmgmt.Environment).
func (s *Site) Setenv(key, value string) {
	s.envFPValid.Store(false)
	if value == "" {
		delete(s.env, key)
		return
	}
	s.env[key] = value
}

// EnvFingerprint condenses the environment variables into a hash, memoized
// until the next Setenv/RestoreEnv. Survey caching compares it on every
// engine operation, so repeat lookups must not re-sort the environment.
func (s *Site) EnvFingerprint() uint64 {
	if s.envFPValid.Load() {
		return s.envFP.Load()
	}
	h := fnv.New64a()
	keys := make([]string, 0, len(s.env))
	for k := range s.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		io.WriteString(h, k)
		h.Write([]byte{0})
		io.WriteString(h, s.env[k])
		h.Write([]byte{1})
	}
	fp := h.Sum64()
	s.envFP.Store(fp)
	s.envFPValid.Store(true)
	return fp
}

// Environ returns a copy of the environment map.
func (s *Site) Environ() map[string]string {
	out := make(map[string]string, len(s.env))
	for k, v := range s.env {
		out[k] = v
	}
	return out
}

var _ envmgmt.Environment = (*Site)(nil)

// DefaultLibDirs returns the loader's built-in search directories for the
// site architecture, plus any directories from /etc/ld.so.conf.
func (s *Site) DefaultLibDirs() []string {
	var dirs []string
	if s.Arch.Class == elfimg.Class64 {
		dirs = append(dirs, "/lib64", "/usr/lib64")
	}
	dirs = append(dirs, "/lib", "/usr/lib")
	if data, err := s.fs.ReadFileShared("/etc/ld.so.conf"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line != "" && !strings.HasPrefix(line, "#") {
				dirs = append(dirs, line)
			}
		}
	}
	return dirs
}

// AddLdSoConfDir appends a directory to /etc/ld.so.conf.
func (s *Site) AddLdSoConfDir(dir string) error {
	var existing string
	if data, err := s.fs.ReadFile("/etc/ld.so.conf"); err == nil {
		existing = string(data)
	}
	return s.fs.WriteString("/etc/ld.so.conf", existing+dir+"\n")
}

// SystemLibDir is the primary library directory for the architecture.
func (s *Site) SystemLibDir() string {
	if s.Arch.Class == elfimg.Class64 {
		return "/lib64"
	}
	return "/lib"
}

// Attribute keys for ground-truth library metadata stored as vfs extended
// attributes.
const (
	AttrABIEpoch     = "sim.abi-epoch"
	AttrFeatureLevel = "sim.feature-level"
)

// Library describes a shared object to install at the site.
type Library struct {
	// FileName is the on-disk name, usually fully versioned
	// (libgfortran.so.1.0.0). The DT_SONAME link name and the unversioned
	// development name are created as symlinks automatically.
	FileName string
	// Soname overrides the DT_SONAME; when empty it is derived from
	// FileName truncated to the major version.
	Soname string
	// Needed lists the object's own DT_NEEDED dependencies.
	Needed []string
	// VerNeeds and VerDefs are GNU version references/definitions.
	VerNeeds []elfimg.VerNeed
	VerDefs  []string
	// Imports and Exports populate the dynamic symbol table.
	Imports []elfimg.ImportedSymbol
	Exports []elfimg.ExportedSymbol
	// Comments is the .comment provenance.
	Comments []string
	// ABIEpoch is the hidden binary-interface generation (0 = stable ABI,
	// never mismatches).
	ABIEpoch int
	// TextSize pads the image to a realistic size; defaults to 64 KiB.
	TextSize int
	// NoSymlinks suppresses creation of the soname/dev-name symlinks.
	NoSymlinks bool
	// Class/Machine override the site architecture (for 32-bit compat
	// libraries on 64-bit sites).
	Class   elfimg.Class
	Machine elfimg.Machine
}

// InstallLibrary builds the library ELF image, or takes it from the
// site's image store, and installs it (plus its soname and development
// symlinks) into dir. It returns the installed file path.
func (s *Site) InstallLibrary(dir string, lib Library) (string, error) {
	if lib.FileName == "" {
		return "", fmt.Errorf("sitemodel: library needs a file name")
	}
	cls, mach := lib.Class, lib.Machine
	if cls == 0 {
		cls = s.Arch.Class
	}
	if mach == 0 {
		mach = s.Arch.Machine
	}
	soname := lib.Soname
	if soname == "" {
		if sn, err := libver.ParseSoname(lib.FileName); err == nil {
			soname = sn.LinkName()
		} else {
			soname = lib.FileName
		}
	}
	textSize := lib.TextSize
	if textSize == 0 {
		textSize = 64 << 10
	}
	img, err := s.Images.image(elfimg.Spec{
		Class:    cls,
		Machine:  mach,
		Type:     elfimg.TypeDyn,
		Soname:   soname,
		Needed:   lib.Needed,
		VerNeeds: lib.VerNeeds,
		VerDefs:  lib.VerDefs,
		Imports:  lib.Imports,
		Exports:  lib.Exports,
		Comments: lib.Comments,
		TextSize: textSize,
	})
	if err != nil {
		return "", fmt.Errorf("sitemodel: building %s: %v", lib.FileName, err)
	}
	full := path.Join(dir, lib.FileName)
	if err := s.fs.WriteBlob(full, img); err != nil {
		return "", err
	}
	if lib.ABIEpoch != 0 {
		if err := s.fs.SetAttr(full, AttrABIEpoch, strconv.Itoa(lib.ABIEpoch)); err != nil {
			return "", err
		}
	}
	if !lib.NoSymlinks {
		for _, link := range symlinkNames(lib.FileName, soname) {
			lp := path.Join(dir, link)
			if s.fs.Exists(lp) {
				continue
			}
			if err := s.fs.Symlink(lib.FileName, lp); err != nil {
				return "", err
			}
		}
	}
	return full, nil
}

// ImageStore holds one fleet's built library images: one immutable blob
// per distinct elfimg.Spec, written into every site that installs that
// spec. Sites running the same C-library release or the same MPI build
// then hold one copy of each image and share its parsed-ELF memo. Images
// are built through one elfimg.Texts memo, so images whose specs share a
// text seed generate their payload once. A store lives as long as its
// sites, so a later UpgradeCLibrary on any of them reuses the images, and
// goes with them. The zero value is ready to use and safe for concurrent
// use: sites of one fleet may install at once, and each image is built
// once, outside the store's lock, by whichever of them asks first.
type ImageStore struct {
	mu    sync.Mutex
	m     map[string]*storedImage
	texts elfimg.Texts
}

// storedImage is one entry of an ImageStore, built by the first request.
type storedImage struct {
	once sync.Once
	blob *vfs.Blob
	err  error
}

// image returns the blob of spec's image, building it on the first
// request; concurrent requests for the same spec wait for that build. The
// key is imageKey(spec), so specs that differ in any field Build reads
// never share. A nil store builds afresh.
func (st *ImageStore) image(spec elfimg.Spec) (*vfs.Blob, error) {
	if st == nil {
		return newImage(nil, spec)
	}
	key := imageKey(spec)
	st.mu.Lock()
	e, ok := st.m[key]
	if !ok {
		if st.m == nil {
			st.m = map[string]*storedImage{}
		}
		e = &storedImage{}
		st.m[key] = e
	}
	st.mu.Unlock()
	e.once.Do(func() { e.blob, e.err = newImage(&st.texts, spec) })
	return e.blob, e.err
}

// newImage builds spec's image through texts (nil builds without a memo)
// and hands it to a blob.
func newImage(texts *elfimg.Texts, spec elfimg.Spec) (*vfs.Blob, error) {
	img, err := texts.Build(spec)
	if err != nil {
		return nil, err
	}
	return vfs.NewBlob(img), nil
}

// imageKey is the canonical form of a spec: every field in declaration
// order, each number as a varint and each string and slice prefixed with
// its length, so two specs share a key only when every field is equal
// ("ab","c" and "a","bc" differ). TestImageStoreKeysEveryField fails when
// elfimg.Spec gains a field this leaves out.
func imageKey(s elfimg.Spec) string {
	k := make([]byte, 0, 256)
	k = binary.AppendUvarint(k, uint64(s.Class))
	k = binary.AppendUvarint(k, uint64(s.Machine))
	k = binary.AppendUvarint(k, uint64(s.Type))
	k = appendKeyStr(appendKeyStr(k, s.Interp), s.Soname)
	k = appendKeyStrs(k, s.Needed)
	k = appendKeyStr(appendKeyStr(k, s.RPath), s.RunPath)
	k = binary.AppendUvarint(k, uint64(len(s.VerNeeds)))
	for _, vn := range s.VerNeeds {
		k = appendKeyStrs(appendKeyStr(k, vn.File), vn.Versions)
	}
	k = appendKeyStrs(k, s.VerDefs)
	k = appendKeyStrs(k, s.Comments)
	k = binary.AppendUvarint(k, uint64(len(s.Imports)))
	for _, im := range s.Imports {
		k = appendKeyStr(appendKeyStr(appendKeyStr(k, im.Name), im.Version), im.Library)
	}
	k = binary.AppendUvarint(k, uint64(len(s.Exports)))
	for _, ex := range s.Exports {
		k = appendKeyStr(appendKeyStr(k, ex.Name), ex.Version)
	}
	k = binary.AppendVarint(k, int64(s.TextSize))
	return string(k)
}

// appendKeyStr appends str to an image key, prefixed with its length.
func appendKeyStr(k []byte, str string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(str))), str...)
}

// appendKeyStrs appends a string slice to an image key: its length, then
// each string by appendKeyStr.
func appendKeyStrs(k []byte, strs []string) []byte {
	k = binary.AppendUvarint(k, uint64(len(strs)))
	for _, str := range strs {
		k = appendKeyStr(k, str)
	}
	return k
}

// symlinkNames returns the soname and development-name symlinks to create
// alongside an installed library file.
func symlinkNames(fileName, soname string) []string {
	var out []string
	if soname != fileName {
		out = append(out, soname)
	}
	if sn, err := libver.ParseSoname(fileName); err == nil && !sn.Version.IsZero() {
		dev := "lib" + sn.Stem + ".so"
		if dev != fileName && dev != soname {
			out = append(out, dev)
		}
	}
	return out
}

// LibraryABIEpoch reads the hidden ABI epoch of an installed library file
// (0 when unset).
func (s *Site) LibraryABIEpoch(p string) int {
	if v, ok := s.fs.Attr(p, AttrABIEpoch); ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return 0
}

// RegisterStack records a ground-truth MPI stack installation.
func (s *Site) RegisterStack(rec *StackRecord) { s.Stacks = append(s.Stacks, rec) }

// FindStack returns the registered stack with the given key, or nil.
func (s *Site) FindStack(key string) *StackRecord {
	for _, r := range s.Stacks {
		if r.Key == key {
			return r
		}
	}
	return nil
}

// EnvTool returns the site's user-environment management tool, if any
// (Environment Modules preferred, then SoftEnv), via the same detection a
// user would perform.
func (s *Site) EnvTool() envmgmt.Tool {
	gen := s.fs.ContentGeneration()
	if m := s.envTool.Load(); m != nil && m.gen == gen {
		return m.tool
	}
	var tool envmgmt.Tool
	if m := envmgmt.DetectModules(s); m != nil {
		tool = m
	} else if se := envmgmt.DetectSoftEnv(s); se != nil {
		tool = se
	}
	s.envTool.Store(&envToolMemo{gen: gen, tool: tool})
	return tool
}

// envToolMemo caches EnvTool detection for one content generation.
// Detection only probes directory and file existence, so attribute
// updates never invalidate it.
type envToolMemo struct {
	gen  uint64
	tool envmgmt.Tool
}

// Snapshot captures the mutable environment so callers can make temporary
// changes (load a stack, stage libraries) and restore afterwards.
type Snapshot struct {
	env map[string]string
}

// SnapshotEnv copies the current environment variables.
func (s *Site) SnapshotEnv() Snapshot {
	return Snapshot{env: s.Environ()}
}

// RestoreEnv reinstates a snapshot taken earlier.
func (s *Site) RestoreEnv(snap Snapshot) {
	s.envFPValid.Store(false)
	s.env = make(map[string]string, len(snap.env))
	for k, v := range snap.env {
		s.env[k] = v
	}
}
