package elfimg

import (
	"encoding/binary"
	"fmt"
)

// View is a zero-copy window over an ELF image. Instead of materializing
// []string/map fields at parse time the way File does, a View records
// validated offsets into the input byte slice and hands out sub-slice
// aliases on demand: accessors and iterators never allocate, which is
// what keeps the EDC survey hot loop allocation-free when it classifies
// every shared object in a library directory.
//
// A View is produced by Parser.Parse and remains valid until the next
// Parse call on the same Parser (the scratch buffers backing the needed
// and version tables are reused) or until the input slice is mutated.
// Callers that need the data to outlive the Parser must copy it out —
// that is exactly what the Parse compatibility shim does.
type View struct {
	data []byte
	cls  Class
	mach Machine
	typ  FileType

	hasSections bool

	// Program-header geometry, kept so the segment fallback can re-walk
	// the table without allocating a slice of headers.
	phoff     uint64
	phnum     uint16
	phentsize uint16

	interp  region // raw bytes in data (may carry a trailing NUL)
	dynstr  region // dynamic string table in data
	comment region // .comment payload in data (section view only)

	soname  int32 // offsets into dynstr; -1 when absent
	rpath   int32
	runpath int32

	needed   []uint32  // dynstr offsets, scratch-backed
	verPairs []verPair // flattened verneed aux entries, scratch-backed
	vnFiles  []uint32  // dynstr offset of each verneed file entry, scratch-backed
	verDefs  []verDef  // verdef entries, scratch-backed

	dynsym region // symbol table in data (section view only)
	versym region // parallel version-index array, zero when absent
}

// region is a validated [off, off+size) window of the underlying image.
type region struct{ off, size uint64 }

// verPair is one (dependency file, version name) reference from the
// verneed table, flattened out of the aux chains at parse time.
type verPair struct {
	entry   uint16 // index into vnFiles: which dependency needs it
	idx     uint16 // versym index bound to this version
	nameOff uint32 // version name, dynstr offset
}

// verDef is one defined version from the verdef table.
type verDef struct {
	idx     uint16
	nameOff uint32
}

// SymbolRef is one dynamic symbol yielded by View.DynSymbols. The byte
// slices alias the image; none of them are retained by the View.
type SymbolRef struct {
	Name     []byte
	Version  []byte // nil when the symbol has no version binding
	Library  []byte // dependency providing the version (imports only)
	Imported bool   // SHN_UNDEF: satisfied by a dependency
}

// Parser decodes ELF images into Views. The zero value is ready to use.
// Scratch buffers (needed offsets, flattened version tables) are retained
// across calls, so a warmed-up Parser parses with zero heap allocations;
// the cost is that each Parse invalidates the previous View.
type Parser struct {
	view     View
	needed   []uint32
	verPairs []verPair
	vnFiles  []uint32
	verDefs  []verDef
}

// Parse decodes data and returns a View aliasing it. The returned pointer
// refers to storage inside the Parser and is invalidated by the next call.
func (p *Parser) Parse(data []byte) (*View, error) {
	v := &p.view
	*v = View{
		data:    data,
		soname:  -1,
		rpath:   -1,
		runpath: -1,
	}
	p.needed = p.needed[:0]
	p.verPairs = p.verPairs[:0]
	p.vnFiles = p.vnFiles[:0]
	p.verDefs = p.verDefs[:0]

	if len(data) < 52 {
		return nil, ErrNotELF
	}
	if data[0] != 0x7f || data[1] != 'E' || data[2] != 'L' || data[3] != 'F' {
		return nil, ErrNotELF
	}
	cls := Class(data[4])
	if cls != Class32 && cls != Class64 {
		return nil, fmt.Errorf("elfimg: unknown ELF class %d", data[4])
	}
	if data[5] != 1 {
		return nil, fmt.Errorf("elfimg: only little-endian images are supported")
	}
	v.cls = cls

	var shoff uint64
	var shnum, shentsize, shstrndx uint16
	t, err := v.u16(16)
	if err != nil {
		return nil, err
	}
	m, err := v.u16(18)
	if err != nil {
		return nil, err
	}
	v.typ, v.mach = FileType(t), Machine(m)
	if cls == Class32 {
		p32, _ := v.u32(28)
		s32, _ := v.u32(32)
		v.phoff, shoff = uint64(p32), uint64(s32)
		v.phentsize, _ = v.u16(42)
		v.phnum, _ = v.u16(44)
		shentsize, _ = v.u16(46)
		shnum, _ = v.u16(48)
		shstrndx, _ = v.u16(50)
	} else {
		v.phoff, _ = v.u64(32)
		shoff, _ = v.u64(40)
		v.phentsize, _ = v.u16(54)
		v.phnum, _ = v.u16(56)
		shentsize, _ = v.u16(58)
		shnum, _ = v.u16(60)
		shstrndx, _ = v.u16(62)
	}
	if v.typ != TypeExec && v.typ != TypeDyn {
		return nil, fmt.Errorf("elfimg: unsupported object type %v", v.typ)
	}

	// PT_INTERP comes from the program headers regardless of which view
	// wins below.
	for i := 0; i < int(v.phnum); i++ {
		ph, err := v.phdrAt(i)
		if err != nil {
			return nil, err
		}
		if ph.pType == ptInterp {
			if _, err := v.bytes(ph.offset, ph.filesz); err != nil {
				return nil, err
			}
			v.interp = region{ph.offset, ph.filesz}
		}
	}

	if shoff != 0 && shnum > 0 {
		if err := p.parseSections(v, shoff, shnum, shentsize, shstrndx); err == nil {
			v.hasSections = true
			v.needed, v.verPairs, v.vnFiles, v.verDefs = p.needed, p.verPairs, p.vnFiles, p.verDefs
			return v, nil
		}
		// Section table unusable: reset anything the failed attempt
		// recorded and fall back to the dynamic segment.
		p.needed = p.needed[:0]
		p.verPairs = p.verPairs[:0]
		p.vnFiles = p.vnFiles[:0]
		p.verDefs = p.verDefs[:0]
		v.dynstr, v.comment, v.dynsym, v.versym = region{}, region{}, region{}, region{}
		v.soname, v.rpath, v.runpath = -1, -1, -1
	}
	if err := p.parseSegments(v); err != nil {
		return nil, err
	}
	v.needed, v.verPairs, v.vnFiles, v.verDefs = p.needed, p.verPairs, p.vnFiles, p.verDefs
	return v, nil
}

// --- raw readers -----------------------------------------------------

func (v *View) u16(off uint64) (uint16, error) {
	if off+2 > uint64(len(v.data)) {
		return 0, fmt.Errorf("elfimg: truncated at %d", off)
	}
	return binary.LittleEndian.Uint16(v.data[off:]), nil
}

func (v *View) u32(off uint64) (uint32, error) {
	if off+4 > uint64(len(v.data)) {
		return 0, fmt.Errorf("elfimg: truncated at %d", off)
	}
	return binary.LittleEndian.Uint32(v.data[off:]), nil
}

func (v *View) u64(off uint64) (uint64, error) {
	if off+8 > uint64(len(v.data)) {
		return 0, fmt.Errorf("elfimg: truncated at %d", off)
	}
	return binary.LittleEndian.Uint64(v.data[off:]), nil
}

func (v *View) bytes(off, n uint64) ([]byte, error) {
	if off+n > uint64(len(v.data)) || off+n < off {
		return nil, fmt.Errorf("elfimg: truncated slice [%d:%d)", off, off+n)
	}
	return v.data[off : off+n], nil
}

func (v *View) phdrAt(i int) (progHdr, error) {
	base := v.phoff + uint64(i)*uint64(v.phentsize)
	pType, err := v.u32(base)
	if err != nil {
		return progHdr{}, err
	}
	var ph progHdr
	ph.pType = pType
	if v.cls == Class32 {
		o, _ := v.u32(base + 4)
		va, _ := v.u32(base + 8)
		fz, _ := v.u32(base + 16)
		ph.offset, ph.vaddr, ph.filesz = uint64(o), uint64(va), uint64(fz)
	} else {
		ph.offset, _ = v.u64(base + 8)
		ph.vaddr, _ = v.u64(base + 16)
		ph.filesz, _ = v.u64(base + 32)
	}
	return ph, nil
}

// dynstrAt returns the NUL-terminated string at a dynstr offset, as an
// alias of the image. Out-of-range offsets yield an empty slice, matching
// the forgiving strAt behavior of the materializing parser.
func (v *View) dynstrAt(off uint32) []byte {
	if uint64(off) >= v.dynstr.size {
		return v.data[:0]
	}
	tab := v.data[v.dynstr.off : v.dynstr.off+v.dynstr.size]
	end := int(off)
	for end < len(tab) && tab[end] != 0 {
		end++
	}
	return tab[off:end]
}

// --- section / segment location passes --------------------------------

func (p *Parser) parseSections(v *View, shoff uint64, shnum, shentsize, shstrndx uint16) error {
	type secRef struct {
		offset uint64
		size   uint64
		link   uint32
		info   uint32
	}
	var dynamic, comment, verneedSec, verdefSec, dynsymSec, versymSec secRef
	var haveDynamic, haveComment, haveVerneed, haveVerdef, haveDynsym, haveVersym bool

	shdrAt := func(i int) (nameOff uint32, s secRef, shType uint32, err error) {
		base := shoff + uint64(i)*uint64(shentsize)
		nameOff, err = v.u32(base)
		if err != nil {
			return 0, secRef{}, 0, err
		}
		shType, _ = v.u32(base + 4)
		if v.cls == Class32 {
			o, _ := v.u32(base + 16)
			sz, _ := v.u32(base + 20)
			s.offset, s.size = uint64(o), uint64(sz)
			s.link, _ = v.u32(base + 24)
			s.info, _ = v.u32(base + 28)
		} else {
			s.offset, _ = v.u64(base + 24)
			s.size, _ = v.u64(base + 32)
			s.link, _ = v.u32(base + 40)
			s.info, _ = v.u32(base + 44)
		}
		return nameOff, s, shType, nil
	}

	if int(shstrndx) >= int(shnum) {
		return fmt.Errorf("elfimg: shstrndx %d out of range", shstrndx)
	}
	_, strs, _, err := shdrAt(int(shstrndx))
	if err != nil {
		return err
	}
	shstr, err := v.bytes(strs.offset, strs.size)
	if err != nil {
		return err
	}
	nameIs := func(off uint32, want string) bool {
		if int(off) >= len(shstr) {
			return false
		}
		rest := shstr[off:]
		if len(rest) <= len(want) {
			return false
		}
		for i := 0; i < len(want); i++ {
			if rest[i] != want[i] {
				return false
			}
		}
		return rest[len(want)] == 0
	}
	// ".comment" has a terminating NUL at exactly len(want) — but nameIs
	// above requires len(rest) > len(want); a name at the very end of the
	// table without its NUL is malformed and treated as a non-match.

	var dynLink uint32
	for i := 0; i < int(shnum); i++ {
		nameOff, s, shType, err := shdrAt(i)
		if err != nil {
			return err
		}
		switch {
		case shType == shtDynamic:
			dynamic, haveDynamic, dynLink = s, true, s.link
		case nameIs(nameOff, ".comment"):
			comment, haveComment = s, true
		case shType == shtGnuVerneed:
			verneedSec, haveVerneed = s, true
		case shType == shtGnuVerdef:
			verdefSec, haveVerdef = s, true
		case shType == shtDynsym:
			dynsymSec, haveDynsym = s, true
		case shType == shtGnuVersym:
			versymSec, haveVersym = s, true
		}
	}
	if !haveDynamic {
		return fmt.Errorf("elfimg: no dynamic section")
	}
	if int(dynLink) >= int(shnum) {
		return fmt.Errorf("elfimg: dynamic sh_link out of range")
	}
	_, dynstrHdr, _, err := shdrAt(int(dynLink))
	if err != nil {
		return err
	}
	if _, err := v.bytes(dynstrHdr.offset, dynstrHdr.size); err != nil {
		return err
	}
	v.dynstr = region{dynstrHdr.offset, dynstrHdr.size}

	if err := p.scanDynamic(v, dynamic.offset, dynamic.size); err != nil {
		return err
	}
	if haveVerneed {
		if err := p.scanVerneed(v, verneedSec.offset, verneedSec.size, int(verneedSec.info)); err != nil {
			return err
		}
	}
	if haveVerdef {
		if err := p.scanVerdef(v, verdefSec.offset, verdefSec.size, int(verdefSec.info)); err != nil {
			return err
		}
	}
	if haveDynsym {
		syment := uint64(24)
		if v.cls == Class32 {
			syment = 16
		}
		if dynsymSec.size%syment != 0 {
			return fmt.Errorf("elfimg: dynsym size %d not a multiple of %d", dynsymSec.size, syment)
		}
		if _, err := v.bytes(dynsymSec.offset, dynsymSec.size); err != nil {
			return err
		}
		v.dynsym = region{dynsymSec.offset, dynsymSec.size}
		if haveVersym {
			v.versym = region{versymSec.offset, versymSec.size}
		}
	}
	if haveComment {
		if _, err := v.bytes(comment.offset, comment.size); err != nil {
			return err
		}
		v.comment = region{comment.offset, comment.size}
	}
	return nil
}

// parseSegments recovers the dynamic metadata using only program headers,
// the way the dynamic loader itself would. No symbol table or .comment is
// available on this path.
func (p *Parser) parseSegments(v *View) error {
	var dyn progHdr
	haveDyn := false
	for i := 0; i < int(v.phnum); i++ {
		ph, err := v.phdrAt(i)
		if err != nil {
			return err
		}
		if ph.pType == ptDynamic {
			dyn, haveDyn = ph, true
			break
		}
	}
	if !haveDyn {
		return fmt.Errorf("elfimg: no PT_DYNAMIC segment")
	}
	vaddrToOff := func(vaddr uint64) (uint64, bool) {
		for i := 0; i < int(v.phnum); i++ {
			ph, err := v.phdrAt(i)
			if err != nil {
				return 0, false
			}
			if ph.pType == ptLoad && vaddr >= ph.vaddr && vaddr < ph.vaddr+ph.filesz {
				return ph.offset + (vaddr - ph.vaddr), true
			}
		}
		return 0, false
	}

	entsize := uint64(16)
	if v.cls == Class32 {
		entsize = 8
	}
	// First pass locates the string table and version tables so the
	// second pass can resolve name offsets.
	var strtabAddr, strsz, verneedAddr, verdefAddr uint64
	var verneedNum, verdefNum int
	for off := dyn.offset; off+entsize <= dyn.offset+dyn.filesz; off += entsize {
		tag, val, err := v.dynEntry(off, entsize)
		if err != nil {
			return err
		}
		if tag == dtNull {
			break
		}
		switch tag {
		case dtStrtab:
			strtabAddr = val
		case dtStrsz:
			strsz = val
		case dtVerneed:
			verneedAddr = val
		case dtVerneednum:
			verneedNum = int(val)
		case dtVerdef:
			verdefAddr = val
		case dtVerdefnum:
			verdefNum = int(val)
		}
	}
	strOff, ok := vaddrToOff(strtabAddr)
	if !ok {
		return fmt.Errorf("elfimg: DT_STRTAB address %#x not mapped", strtabAddr)
	}
	if _, err := v.bytes(strOff, strsz); err != nil {
		return err
	}
	v.dynstr = region{strOff, strsz}

	if err := p.scanDynamic(v, dyn.offset, dyn.filesz); err != nil {
		return err
	}
	if verneedAddr != 0 {
		if off, ok := vaddrToOff(verneedAddr); ok {
			if err := p.scanVerneed(v, off, uint64(len(v.data))-off, verneedNum); err != nil {
				return err
			}
		}
	}
	if verdefAddr != 0 {
		if off, ok := vaddrToOff(verdefAddr); ok {
			if err := p.scanVerdef(v, off, uint64(len(v.data))-off, verdefNum); err != nil {
				return err
			}
		}
	}
	return nil
}

func (v *View) dynEntry(off, entsize uint64) (tag int64, val uint64, err error) {
	if v.cls == Class32 {
		t, err := v.u32(off)
		if err != nil {
			return 0, 0, err
		}
		val, _ := v.u32(off + 4)
		return int64(int32(t)), uint64(val), nil
	}
	t, err := v.u64(off)
	if err != nil {
		return 0, 0, err
	}
	val, _ = v.u64(off + 8)
	return int64(t), val, nil
}

// scanDynamic records the dynstr offsets of DT_NEEDED/SONAME/RPATH/RUNPATH
// entries. dynstr must already be located.
func (p *Parser) scanDynamic(v *View, off, size uint64) error {
	entsize := uint64(16)
	if v.cls == Class32 {
		entsize = 8
	}
	for cur := off; cur+entsize <= off+size; cur += entsize {
		tag, val, err := v.dynEntry(cur, entsize)
		if err != nil {
			return err
		}
		switch tag {
		case dtNull:
			return nil
		case dtNeeded:
			p.needed = append(p.needed, clampStr(val))
		case dtSoname:
			v.soname = int32(clampStr(val))
		case dtRpath:
			v.rpath = int32(clampStr(val))
		case dtRunpath:
			v.runpath = int32(clampStr(val))
		}
	}
	return nil
}

// clampStr narrows a dynamic-entry value to the uint32 range used for
// dynstr offsets; out-of-range values become an offset past any table,
// which dynstrAt resolves to the empty string — same forgiving behavior
// as the materializing parser.
func clampStr(val uint64) uint32 {
	if val > 0xfffffffe {
		return 0xffffffff
	}
	return uint32(val)
}

// scanVerneed flattens the verneed table into (file, version) pairs.
func (p *Parser) scanVerneed(v *View, off, maxSize uint64, count int) error {
	// A hostile count cannot exceed one entry per 16 bytes of table.
	if max := int(maxSize / 16); count > max {
		count = max
	}
	cur := off
	for i := 0; i < count; i++ {
		if cur+16 > off+maxSize {
			return fmt.Errorf("elfimg: truncated verneed")
		}
		cnt, err := v.u16(cur + 2)
		if err != nil {
			return err
		}
		fileOff, _ := v.u32(cur + 4)
		auxOff, _ := v.u32(cur + 8)
		next, _ := v.u32(cur + 12)
		entry := uint16(len(p.vnFiles))
		p.vnFiles = append(p.vnFiles, fileOff)
		aux := cur + uint64(auxOff)
		for j := 0; j < int(cnt); j++ {
			other, err := v.u16(aux + 6)
			if err != nil {
				return err
			}
			nameOff, err := v.u32(aux + 8)
			if err != nil {
				return err
			}
			auxNext, _ := v.u32(aux + 12)
			p.verPairs = append(p.verPairs, verPair{entry: entry, idx: other, nameOff: nameOff})
			if auxNext == 0 {
				break
			}
			aux += uint64(auxNext)
		}
		if next == 0 {
			break
		}
		cur += uint64(next)
	}
	return nil
}

// scanVerdef records the defined versions.
func (p *Parser) scanVerdef(v *View, off, maxSize uint64, count int) error {
	// A hostile count cannot exceed one entry per 20 bytes of table.
	if max := int(maxSize / 20); count > max {
		count = max
	}
	cur := off
	for i := 0; i < count; i++ {
		if cur+20 > off+maxSize {
			return fmt.Errorf("elfimg: truncated verdef")
		}
		ndx, err := v.u16(cur + 4)
		if err != nil {
			return err
		}
		auxOff, err := v.u32(cur + 12)
		if err != nil {
			return err
		}
		next, _ := v.u32(cur + 16)
		nameOff, err := v.u32(cur + uint64(auxOff))
		if err != nil {
			return err
		}
		p.verDefs = append(p.verDefs, verDef{idx: ndx, nameOff: nameOff})
		if next == 0 {
			break
		}
		cur += uint64(next)
	}
	return nil
}

// --- accessors --------------------------------------------------------

// Class returns the ELF class (32/64-bit).
func (v *View) Class() Class { return v.cls }

// Machine returns the target machine.
func (v *View) Machine() Machine { return v.mach }

// Type returns the object type (executable or shared object).
func (v *View) Type() FileType { return v.typ }

// HasSections reports whether the section-header view was usable; when
// false the View was recovered from program headers only, and symbol and
// .comment data are unavailable.
func (v *View) HasSections() bool { return v.hasSections }

// Interp returns the PT_INTERP payload without its trailing NULs, or nil.
func (v *View) Interp() []byte {
	if v.interp.size == 0 {
		return nil
	}
	raw := v.data[v.interp.off : v.interp.off+v.interp.size]
	end := len(raw)
	for end > 0 && raw[end-1] == 0 {
		end--
	}
	return raw[:end]
}

// Soname returns the DT_SONAME string, or nil when absent.
func (v *View) Soname() []byte {
	if v.soname < 0 {
		return nil
	}
	return v.dynstrAt(uint32(v.soname))
}

// RPath returns the DT_RPATH string, or nil when absent.
func (v *View) RPath() []byte {
	if v.rpath < 0 {
		return nil
	}
	return v.dynstrAt(uint32(v.rpath))
}

// RunPath returns the DT_RUNPATH string, or nil when absent.
func (v *View) RunPath() []byte {
	if v.runpath < 0 {
		return nil
	}
	return v.dynstrAt(uint32(v.runpath))
}

// NeededCount returns the number of DT_NEEDED entries.
func (v *View) NeededCount() int { return len(v.needed) }

// NeededAt returns the i-th DT_NEEDED dependency name.
func (v *View) NeededAt(i int) []byte { return v.dynstrAt(v.needed[i]) }

// VerNeedCount returns the number of verneed file entries.
func (v *View) VerNeedCount() int { return len(v.vnFiles) }

// VerNeedFileAt returns the dependency file name of the i-th verneed entry.
func (v *View) VerNeedFileAt(i int) []byte { return v.dynstrAt(v.vnFiles[i]) }

// VerNeeds walks the flattened (entry, version) requirements in table
// order: entry indexes VerNeedFileAt. The walk stops when fn returns
// false. Entries whose aux chain is empty yield no pairs — use
// VerNeedCount/VerNeedFileAt to see every referenced file.
func (v *View) VerNeeds(fn func(entry int, version []byte) bool) {
	for i := range v.verPairs {
		pr := &v.verPairs[i]
		if !fn(int(pr.entry), v.dynstrAt(pr.nameOff)) {
			return
		}
	}
}

// VerDefs walks the defined version names in table order until fn
// returns false.
func (v *View) VerDefs(fn func(version []byte) bool) {
	for i := range v.verDefs {
		if !fn(v.dynstrAt(v.verDefs[i].nameOff)) {
			return
		}
	}
}

// Comments walks the NUL-separated .comment entries (section view only)
// until fn returns false.
func (v *View) Comments(fn func(comment []byte) bool) {
	raw := v.data[v.comment.off : v.comment.off+v.comment.size]
	start := 0
	for i := 0; i <= len(raw); i++ {
		if i == len(raw) || raw[i] == 0 {
			if i > start {
				if !fn(raw[start:i]) {
					return
				}
			}
			start = i + 1
		}
	}
}

// versionFor resolves a versym index to its (library, version) names. The
// linear scans stay allocation-free; version tables are small (a handful
// of entries for real shared objects), and verdef bindings take
// precedence over verneed ones, matching the materializing parser's
// last-write-wins map construction.
func (v *View) versionFor(idx uint16) (lib, ver []byte, ok bool) {
	for i := range v.verDefs {
		if v.verDefs[i].idx == idx {
			return nil, v.dynstrAt(v.verDefs[i].nameOff), true
		}
	}
	for i := range v.verPairs {
		if v.verPairs[i].idx == idx {
			return v.dynstrAt(v.vnFiles[v.verPairs[i].entry]), v.dynstrAt(v.verPairs[i].nameOff), true
		}
	}
	return nil, nil, false
}

// DynSymbols walks the dynamic symbol table (section view only) until fn
// returns false. Slot 0 and unnamed slots are skipped, mirroring the
// materializing parser.
func (v *View) DynSymbols(fn func(sym SymbolRef) bool) {
	if v.dynsym.size == 0 {
		return
	}
	syment := uint64(24)
	if v.cls == Class32 {
		syment = 16
	}
	count := int(v.dynsym.size / syment)
	for slot := 1; slot < count; slot++ {
		base := v.dynsym.off + uint64(slot)*syment
		nameOff, err := v.u32(base)
		if err != nil {
			return
		}
		var shndx uint16
		if v.cls == Class32 {
			shndx, _ = v.u16(base + 14)
		} else {
			shndx, _ = v.u16(base + 6)
		}
		name := v.dynstrAt(nameOff)
		if len(name) == 0 {
			continue
		}
		var sym SymbolRef
		sym.Name = name
		sym.Imported = shndx == 0
		if v.versym.size != 0 {
			if raw, err := v.u16(v.versym.off + uint64(slot)*2); err == nil {
				raw &= 0x7fff // clear the hidden bit
				if raw > verNdxGlobal {
					if lib, ver, ok := v.versionFor(raw); ok {
						sym.Library, sym.Version = lib, ver
					}
				}
			}
		}
		if !sym.Imported {
			sym.Library = nil
		}
		if !fn(sym) {
			return
		}
	}
}

// Imports walks the undefined (imported) dynamic symbols only, in table
// order, until fn returns false. It is DynSymbols filtered to
// sym.Imported — the requirement side of an ABI resolution.
func (v *View) Imports(fn func(sym SymbolRef) bool) {
	v.DynSymbols(func(sym SymbolRef) bool {
		if !sym.Imported {
			return true
		}
		return fn(sym)
	})
}

// Exports walks the defined dynamic symbols only, in table order, until
// fn returns false: the provider side of an ABI resolution. version is
// nil for unversioned exports.
func (v *View) Exports(fn func(name, version []byte) bool) {
	v.DynSymbols(func(sym SymbolRef) bool {
		if sym.Imported {
			return true
		}
		return fn(sym.Name, sym.Version)
	})
}

// VerDefAt returns the i-th defined version name, indexing the same table
// VerDefs walks.
func (v *View) VerDefAt(i int) []byte { return v.dynstrAt(v.verDefs[i].nameOff) }
