package elfimg

import (
	"encoding/binary"
	"fmt"
)

// Build renders the spec into a complete little-endian ELF image.
func Build(spec Spec) ([]byte, error) { return render(spec, nil) }

// render is Build, taking the .text payload from texts (nil generates it).
func render(spec Spec, texts *Texts) ([]byte, error) {
	if spec.Class != Class32 && spec.Class != Class64 {
		return nil, fmt.Errorf("elfimg: invalid class %d", spec.Class)
	}
	if spec.Type != TypeExec && spec.Type != TypeDyn {
		return nil, fmt.Errorf("elfimg: invalid type %d", spec.Type)
	}
	if spec.Soname != "" && spec.Type != TypeDyn {
		return nil, fmt.Errorf("elfimg: soname only valid for shared objects")
	}
	b := &builder{spec: spec, le: binary.LittleEndian, texts: texts}
	return b.build()
}

// MustBuild is Build for statically known specs; it panics on error.
func MustBuild(spec Spec) []byte {
	img, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return img
}

type builder struct {
	spec  Spec
	le    binary.ByteOrder
	texts *Texts // where the .text payload comes from; nil generates it
}

// Geometry per class.
func (b *builder) ehsize() int {
	if b.spec.Class == Class32 {
		return 52
	}
	return 64
}
func (b *builder) phentsize() int {
	if b.spec.Class == Class32 {
		return 32
	}
	return 56
}
func (b *builder) shentsize() int {
	if b.spec.Class == Class32 {
		return 40
	}
	return 64
}
func (b *builder) dynentsize() int {
	if b.spec.Class == Class32 {
		return 8
	}
	return 16
}
func (b *builder) symentsize() int {
	if b.spec.Class == Class32 {
		return 16
	}
	return 24
}

// vaddrBase is the load address of the single PT_LOAD segment mapping the
// whole file. Shared objects are position independent (base 0).
func (b *builder) vaddrBase() uint64 {
	if b.spec.Type == TypeDyn {
		return 0
	}
	if b.spec.Class == Class32 {
		return 0x08048000
	}
	return 0x400000
}

type section struct {
	name      string
	shType    uint32
	flags     uint64
	offset    uint64
	size      uint64
	link      uint32
	info      uint32
	align     uint64
	entsize   uint64
	data      []byte
	addr      uint64
	addrValid bool // whether addr should be set to base+offset
}

func align(n, a uint64) uint64 {
	if a == 0 {
		return n
	}
	return (n + a - 1) &^ (a - 1)
}

func (b *builder) build() ([]byte, error) {
	spec := b.spec
	dynstr := newStringTable()

	// Pre-intern all dynamic strings.
	neededOffs := make([]uint32, len(spec.Needed))
	for i, n := range spec.Needed {
		neededOffs[i] = dynstr.add(n)
	}
	var sonameOff, rpathOff, runpathOff uint32
	if spec.Soname != "" {
		sonameOff = dynstr.add(spec.Soname)
	}
	if spec.RPath != "" {
		rpathOff = dynstr.add(spec.RPath)
	}
	if spec.RunPath != "" {
		runpathOff = dynstr.add(spec.RunPath)
	}
	for _, vn := range spec.VerNeeds {
		dynstr.add(vn.File)
		for _, v := range vn.Versions {
			dynstr.add(v)
		}
	}
	for _, vd := range spec.VerDefs {
		dynstr.add(vd)
	}

	// Symbol names.
	for _, im := range spec.Imports {
		dynstr.add(im.Name)
	}
	for _, ex := range spec.Exports {
		dynstr.add(ex.Name)
	}

	// Version tables. Version indices share one namespace per object:
	// definitions take 1..len(VerDefs); needed versions continue after
	// them (and after the reserved LOCAL/GLOBAL slots).
	verdefData, verdefIdxOf := b.buildVerdef(dynstr)
	verneedStart := uint16(len(spec.VerDefs)) + 2
	verneedData, verneedIdxOf := b.buildVerneed(dynstr, verneedStart)

	// Comment section: NUL-terminated strings.
	var commentData []byte
	for _, c := range spec.Comments {
		commentData = append(commentData, c...)
		commentData = append(commentData, 0)
	}

	// Dynamic symbol table and its parallel versym array.
	hasSymbols := len(spec.Imports)+len(spec.Exports) > 0
	var dynsymData, versymData []byte
	if hasSymbols {
		syment := b.symentsize()
		symCount := 1 + len(spec.Imports) + len(spec.Exports)
		dynsymData = make([]byte, symCount*syment)
		versymData = make([]byte, symCount*2)
		b.le.PutUint16(versymData[0:], verNdxLocal) // null symbol
		writeSym := func(slot int, nameOff uint32, defined bool) {
			off := slot * syment
			const stInfo = 0x12 // GLOBAL | FUNC
			var shndx uint16
			if defined {
				shndx = 1
			}
			if b.spec.Class == Class32 {
				b.le.PutUint32(dynsymData[off:], nameOff)
				b.le.PutUint32(dynsymData[off+4:], 0) // st_value
				b.le.PutUint32(dynsymData[off+8:], 0) // st_size
				dynsymData[off+12] = stInfo
				dynsymData[off+13] = 0
				b.le.PutUint16(dynsymData[off+14:], shndx)
			} else {
				b.le.PutUint32(dynsymData[off:], nameOff)
				dynsymData[off+4] = stInfo
				dynsymData[off+5] = 0
				b.le.PutUint16(dynsymData[off+6:], shndx)
				b.le.PutUint64(dynsymData[off+8:], 0)  // st_value
				b.le.PutUint64(dynsymData[off+16:], 0) // st_size
			}
		}
		slot := 1
		for _, im := range spec.Imports {
			if im.Version != "" {
				if _, ok := verneedIdxOf[[2]string{im.Library, im.Version}]; !ok {
					return nil, fmt.Errorf("elfimg: import %s binds version %s@%s not in VerNeeds",
						im.Name, im.Version, im.Library)
				}
			}
			writeSym(slot, dynstr.add(im.Name), false)
			idx := uint16(verNdxGlobal)
			if im.Version != "" {
				idx = verneedIdxOf[[2]string{im.Library, im.Version}]
			}
			b.le.PutUint16(versymData[slot*2:], idx)
			slot++
		}
		for _, ex := range spec.Exports {
			if ex.Version != "" {
				if _, ok := verdefIdxOf[ex.Version]; !ok {
					return nil, fmt.Errorf("elfimg: export %s binds version %s not in VerDefs",
						ex.Name, ex.Version)
				}
			}
			writeSym(slot, dynstr.add(ex.Name), true)
			idx := uint16(verNdxGlobal)
			if ex.Version != "" {
				idx = verdefIdxOf[ex.Version]
			}
			b.le.PutUint16(versymData[slot*2:], idx)
			slot++
		}
	}

	// Section list in file order. Index 0 is the null section.
	var sections []*section
	addSection := func(s *section) int {
		sections = append(sections, s)
		return len(sections) - 1
	}
	addSection(&section{name: ""}) // SHT_NULL

	var interpIdx int
	if spec.Interp != "" {
		interpIdx = addSection(&section{
			name: ".interp", shType: shtProgbits, flags: 2, /* SHF_ALLOC */
			data: append([]byte(spec.Interp), 0), align: 1, addrValid: true,
		})
	}
	// The synthetic text payload has no buffer of its own: it is written
	// straight into the image once the layout is known.
	var textIdx int
	if spec.TextSize > 0 {
		textIdx = addSection(&section{
			name: ".text", shType: shtProgbits, flags: 2 | 4, /* ALLOC|EXECINSTR */
			size: uint64(spec.TextSize), align: 16, addrValid: true,
		})
	}
	dynstrIdx := addSection(&section{
		name: ".dynstr", shType: shtStrtab, flags: 2,
		data: dynstr.data, align: 1, addrValid: true,
	})
	var dynsymIdx, versymIdx int
	if hasSymbols {
		dynsymIdx = addSection(&section{
			name: ".dynsym", shType: shtDynsym, flags: 2,
			data: dynsymData, align: 8, link: uint32(dynstrIdx),
			info: 1, entsize: uint64(b.symentsize()), addrValid: true,
		})
		versymIdx = addSection(&section{
			name: ".gnu.version", shType: shtGnuVersym, flags: 2,
			data: versymData, align: 2, link: uint32(dynsymIdx),
			entsize: 2, addrValid: true,
		})
	}
	var verneedIdx, verdefIdx int
	if len(verneedData) > 0 {
		verneedIdx = addSection(&section{
			name: ".gnu.version_r", shType: shtGnuVerneed, flags: 2,
			data: verneedData, align: 4, link: uint32(dynstrIdx),
			info: uint32(len(spec.VerNeeds)), addrValid: true,
		})
	}
	if len(verdefData) > 0 {
		verdefIdx = addSection(&section{
			name: ".gnu.version_d", shType: shtGnuVerdef, flags: 2,
			data: verdefData, align: 4, link: uint32(dynstrIdx),
			info: uint32(len(spec.VerDefs)), addrValid: true,
		})
	}
	dynamicIdx := addSection(&section{
		name: ".dynamic", shType: shtDynamic, flags: 2 | 1, /* ALLOC|WRITE */
		align: uint64(b.dynentsize()), link: uint32(dynstrIdx),
		entsize: uint64(b.dynentsize()), addrValid: true,
		// data filled in below once offsets are known
	})
	if len(commentData) > 0 {
		addSection(&section{
			name: ".comment", shType: shtProgbits, flags: 0,
			data: commentData, align: 1,
		})
	}
	shstrtab := newStringTable()
	shstrtabIdx := addSection(&section{
		name: ".shstrtab", shType: shtStrtab, flags: 0, align: 1,
	})
	for _, s := range sections {
		shstrtab.add(s.name)
	}
	sections[shstrtabIdx].data = shstrtab.data

	// Program header count: PT_LOAD always; PT_INTERP for executables with
	// an interpreter; PT_DYNAMIC always.
	phnum := 2
	if spec.Interp != "" {
		phnum = 3
	}

	// Lay out file offsets. The dynamic section size must be known first:
	// entries = needed + soname? + rpath? + strtab + strsz + verneed(2)? +
	// verdef(2)? + null.
	dynCount := len(spec.Needed) + 2 + 1 // needed + strtab/strsz + null
	if hasSymbols {
		dynCount += 3 // symtab, syment, versym
	}
	if spec.Soname != "" {
		dynCount++
	}
	if spec.RPath != "" {
		dynCount++
	}
	if spec.RunPath != "" {
		dynCount++
	}
	if len(verneedData) > 0 {
		dynCount += 2
	}
	if len(verdefData) > 0 {
		dynCount += 2
	}
	sections[dynamicIdx].data = make([]byte, dynCount*b.dynentsize())

	off := uint64(b.ehsize() + phnum*b.phentsize())
	base := b.vaddrBase()
	for i, s := range sections {
		if i == 0 {
			continue
		}
		off = align(off, s.align)
		s.offset = off
		if s.data != nil { // .text has only its preset size
			s.size = uint64(len(s.data))
		}
		if s.addrValid {
			s.addr = base + s.offset
		}
		off += s.size
	}
	shoff := align(off, 8)
	fileSize := shoff + uint64(len(sections)*b.shentsize())

	// Now fill the dynamic section with final addresses.
	dynstrSec := sections[dynstrIdx]
	var dyn []byte
	putDyn := func(tag int64, val uint64) {
		if b.spec.Class == Class32 {
			var buf [8]byte
			b.le.PutUint32(buf[0:], uint32(tag))
			b.le.PutUint32(buf[4:], uint32(val))
			dyn = append(dyn, buf[:]...)
		} else {
			var buf [16]byte
			b.le.PutUint64(buf[0:], uint64(tag))
			b.le.PutUint64(buf[8:], val)
			dyn = append(dyn, buf[:]...)
		}
	}
	for _, o := range neededOffs {
		putDyn(dtNeeded, uint64(o))
	}
	if spec.Soname != "" {
		putDyn(dtSoname, uint64(sonameOff))
	}
	if spec.RPath != "" {
		putDyn(dtRpath, uint64(rpathOff))
	}
	if spec.RunPath != "" {
		putDyn(dtRunpath, uint64(runpathOff))
	}
	putDyn(dtStrtab, dynstrSec.addr)
	putDyn(dtStrsz, dynstrSec.size)
	if hasSymbols {
		putDyn(dtSymtab, sections[dynsymIdx].addr)
		putDyn(dtSyment, uint64(b.symentsize()))
		putDyn(dtVersym, sections[versymIdx].addr)
	}
	if len(verneedData) > 0 {
		putDyn(dtVerneed, sections[verneedIdx].addr)
		putDyn(dtVerneednum, uint64(len(spec.VerNeeds)))
	}
	if len(verdefData) > 0 {
		putDyn(dtVerdef, sections[verdefIdx].addr)
		putDyn(dtVerdefnum, uint64(len(spec.VerDefs)))
	}
	putDyn(dtNull, 0)
	if len(dyn) != len(sections[dynamicIdx].data) {
		return nil, fmt.Errorf("elfimg: internal error: dynamic size mismatch (%d != %d)",
			len(dyn), len(sections[dynamicIdx].data))
	}
	sections[dynamicIdx].data = dyn

	// Assemble the file.
	img := make([]byte, fileSize)
	b.writeEhdr(img, phnum, shoff, len(sections), shstrtabIdx)
	b.writePhdrs(img, sections, interpIdx, dynamicIdx, spec.Interp != "", fileSize)
	for i, s := range sections {
		if i == 0 {
			continue
		}
		copy(img[s.offset:], s.data)
	}
	if textIdx != 0 {
		text := img[sections[textIdx].offset:][:spec.TextSize:spec.TextSize]
		b.texts.fill(text, textSeed(spec))
	}
	// Section header table.
	for i, s := range sections {
		b.writeShdr(img[shoff+uint64(i*b.shentsize()):], s, shstrtab)
	}
	return img, nil
}

// buildVerneed renders the version-needs table, assigning each (file,
// version) pair a globally unique versym index starting at start.
func (b *builder) buildVerneed(dynstr *stringTable, start uint16) ([]byte, map[[2]string]uint16) {
	spec := b.spec
	if len(spec.VerNeeds) == 0 {
		return nil, nil
	}
	idxOf := map[[2]string]uint16{}
	next := start
	var out []byte
	for i, vn := range spec.VerNeeds {
		entrySize := 16 + 16*len(vn.Versions)
		nextOff := uint32(entrySize)
		if i == len(spec.VerNeeds)-1 {
			nextOff = 0
		}
		var hdr [16]byte
		b.le.PutUint16(hdr[0:], 1)                        // vn_version
		b.le.PutUint16(hdr[2:], uint16(len(vn.Versions))) // vn_cnt
		b.le.PutUint32(hdr[4:], dynstr.add(vn.File))      // vn_file
		b.le.PutUint32(hdr[8:], 16)                       // vn_aux
		b.le.PutUint32(hdr[12:], nextOff)                 // vn_next
		out = append(out, hdr[:]...)
		for j, v := range vn.Versions {
			idxOf[[2]string{vn.File, v}] = next
			var aux [16]byte
			b.le.PutUint32(aux[0:], elfHash(v))    // vna_hash
			b.le.PutUint16(aux[4:], 0)             // vna_flags
			b.le.PutUint16(aux[6:], next)          // vna_other (version index)
			b.le.PutUint32(aux[8:], dynstr.add(v)) // vna_name
			next++
			auxNext := uint32(16)
			if j == len(vn.Versions)-1 {
				auxNext = 0
			}
			b.le.PutUint32(aux[12:], auxNext) // vna_next
			out = append(out, aux[:]...)
		}
	}
	return out, idxOf
}

// buildVerdef renders the version-definitions table; each definition's
// vd_ndx is its versym index.
func (b *builder) buildVerdef(dynstr *stringTable) ([]byte, map[string]uint16) {
	spec := b.spec
	if len(spec.VerDefs) == 0 {
		return nil, nil
	}
	idxOf := map[string]uint16{}
	var out []byte
	for i, vd := range spec.VerDefs {
		idxOf[vd] = uint16(i + 1)
		const entrySize = 20 + 8
		next := uint32(entrySize)
		if i == len(spec.VerDefs)-1 {
			next = 0
		}
		var hdr [20]byte
		b.le.PutUint16(hdr[0:], 1)           // vd_version
		b.le.PutUint16(hdr[2:], 0)           // vd_flags
		b.le.PutUint16(hdr[4:], uint16(i+1)) // vd_ndx
		b.le.PutUint16(hdr[6:], 1)           // vd_cnt
		b.le.PutUint32(hdr[8:], elfHash(vd)) // vd_hash
		b.le.PutUint32(hdr[12:], 20)         // vd_aux
		b.le.PutUint32(hdr[16:], next)       // vd_next
		out = append(out, hdr[:]...)
		var aux [8]byte
		b.le.PutUint32(aux[0:], dynstr.add(vd)) // vda_name
		b.le.PutUint32(aux[4:], 0)              // vda_next
		out = append(out, aux[:]...)
	}
	return out, idxOf
}

func (b *builder) writeEhdr(img []byte, phnum int, shoff uint64, shnum, shstrndx int) {
	img[0], img[1], img[2], img[3] = 0x7f, 'E', 'L', 'F'
	img[4] = byte(b.spec.Class)
	img[5] = 1 // ELFDATA2LSB
	img[6] = 1 // EV_CURRENT
	// e_ident[7..15] zero: SysV ABI.
	entry := b.vaddrBase()
	if b.spec.Class == Class32 {
		b.le.PutUint16(img[16:], uint16(b.spec.Type))
		b.le.PutUint16(img[18:], uint16(b.spec.Machine))
		b.le.PutUint32(img[20:], 1)
		b.le.PutUint32(img[24:], uint32(entry))
		b.le.PutUint32(img[28:], uint32(b.ehsize())) // e_phoff
		b.le.PutUint32(img[32:], uint32(shoff))
		b.le.PutUint32(img[36:], 0) // e_flags
		b.le.PutUint16(img[40:], uint16(b.ehsize()))
		b.le.PutUint16(img[42:], uint16(b.phentsize()))
		b.le.PutUint16(img[44:], uint16(phnum))
		b.le.PutUint16(img[46:], uint16(b.shentsize()))
		b.le.PutUint16(img[48:], uint16(shnum))
		b.le.PutUint16(img[50:], uint16(shstrndx))
		return
	}
	b.le.PutUint16(img[16:], uint16(b.spec.Type))
	b.le.PutUint16(img[18:], uint16(b.spec.Machine))
	b.le.PutUint32(img[20:], 1)
	b.le.PutUint64(img[24:], entry)
	b.le.PutUint64(img[32:], uint64(b.ehsize())) // e_phoff
	b.le.PutUint64(img[40:], shoff)
	b.le.PutUint32(img[48:], 0) // e_flags
	b.le.PutUint16(img[52:], uint16(b.ehsize()))
	b.le.PutUint16(img[54:], uint16(b.phentsize()))
	b.le.PutUint16(img[56:], uint16(phnum))
	b.le.PutUint16(img[58:], uint16(b.shentsize()))
	b.le.PutUint16(img[60:], uint16(shnum))
	b.le.PutUint16(img[62:], uint16(shstrndx))
}

func (b *builder) writePhdrs(img []byte, sections []*section, interpIdx, dynamicIdx int, hasInterp bool, fileSize uint64) {
	base := b.vaddrBase()
	phoff := b.ehsize()
	i := 0
	put := func(pType uint32, flags uint32, offset, vaddr, filesz, memsz, alignv uint64) {
		p := img[phoff+i*b.phentsize():]
		if b.spec.Class == Class32 {
			b.le.PutUint32(p[0:], pType)
			b.le.PutUint32(p[4:], uint32(offset))
			b.le.PutUint32(p[8:], uint32(vaddr))
			b.le.PutUint32(p[12:], uint32(vaddr))
			b.le.PutUint32(p[16:], uint32(filesz))
			b.le.PutUint32(p[20:], uint32(memsz))
			b.le.PutUint32(p[24:], flags)
			b.le.PutUint32(p[28:], uint32(alignv))
		} else {
			b.le.PutUint32(p[0:], pType)
			b.le.PutUint32(p[4:], flags)
			b.le.PutUint64(p[8:], offset)
			b.le.PutUint64(p[16:], vaddr)
			b.le.PutUint64(p[24:], vaddr)
			b.le.PutUint64(p[32:], filesz)
			b.le.PutUint64(p[40:], memsz)
			b.le.PutUint64(p[48:], alignv)
		}
		i++
	}
	// PT_LOAD mapping the whole file read/execute.
	put(ptLoad, 5 /* R+X */, 0, base, fileSize, fileSize, 0x1000)
	if hasInterp {
		s := sections[interpIdx]
		put(ptInterp, 4 /* R */, s.offset, s.addr, s.size, s.size, 1)
	}
	d := sections[dynamicIdx]
	put(ptDynamic, 6 /* R+W */, d.offset, d.addr, d.size, d.size, uint64(b.dynentsize()))
}

func (b *builder) writeShdr(dst []byte, s *section, shstrtab *stringTable) {
	nameOff := shstrtab.add(s.name)
	if b.spec.Class == Class32 {
		b.le.PutUint32(dst[0:], nameOff)
		b.le.PutUint32(dst[4:], s.shType)
		b.le.PutUint32(dst[8:], uint32(s.flags))
		b.le.PutUint32(dst[12:], uint32(s.addr))
		b.le.PutUint32(dst[16:], uint32(s.offset))
		b.le.PutUint32(dst[20:], uint32(s.size))
		b.le.PutUint32(dst[24:], s.link)
		b.le.PutUint32(dst[28:], s.info)
		b.le.PutUint32(dst[32:], uint32(s.align))
		b.le.PutUint32(dst[36:], uint32(s.entsize))
		return
	}
	b.le.PutUint32(dst[0:], nameOff)
	b.le.PutUint32(dst[4:], s.shType)
	b.le.PutUint64(dst[8:], s.flags)
	b.le.PutUint64(dst[16:], s.addr)
	b.le.PutUint64(dst[24:], s.offset)
	b.le.PutUint64(dst[32:], s.size)
	b.le.PutUint32(dst[40:], s.link)
	b.le.PutUint32(dst[44:], s.info)
	b.le.PutUint64(dst[48:], s.align)
	b.le.PutUint64(dst[56:], s.entsize)
}
