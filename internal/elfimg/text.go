package elfimg

import (
	"encoding/binary"
	"strconv"
	"sync"
)

// The synthetic .text payload is the top byte of each step of a 64-bit
// linear congruential generator, x' = x*textMul + textAdd (mod 2^64),
// started from the spec's 32-bit text seed. Byte i depends only on the
// seed and i, so a shorter payload of a seed is a prefix of a longer one.
const (
	textMul = 2862933555777941757
	textAdd = 3037000493
)

// textMul8 and textAdd8 advance the generator eight steps in one:
// x8 = x*textMul^8 + textAdd*(textMul^7+...+textMul+1), built by three
// doublings (two steps of (m, a) are one step of (m*m, a*(m+1))).
const (
	textMul2 = textMul * textMul % (1 << 64)
	textAdd2 = textAdd * (textMul + 1) % (1 << 64)
	textMul4 = textMul2 * textMul2 % (1 << 64)
	textAdd4 = textAdd2 * (textMul2 + 1) % (1 << 64)
	textMul8 = textMul4 * textMul4 % (1 << 64)
	textAdd8 = textAdd4 * (textMul4 + 1) % (1 << 64)
)

// textSeed is the seed of spec's payload: a hash of the identity fields
// that every image with this payload shares.
func textSeed(spec Spec) uint32 {
	return elfHash(spec.Soname + spec.Interp + strconv.Itoa(len(spec.Needed)))
}

// fillText writes the first len(dst) payload bytes of seed into dst. It
// runs eight generators side by side, one per byte of a little-endian
// word, each stepping eight states at a time, so the multiplications do
// not wait on one another.
func fillText(dst []byte, seed uint32) {
	x := uint64(seed)*textMul + textAdd
	var lane [8]uint64
	for j := range lane {
		x = x*textMul + textAdd
		lane[j] = x
	}
	x0, x1, x2, x3, x4, x5, x6, x7 := lane[0], lane[1], lane[2], lane[3], lane[4], lane[5], lane[6], lane[7]
	for len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, x0>>56|x1>>56<<8|x2>>56<<16|x3>>56<<24|
			x4>>56<<32|x5>>56<<40|x6>>56<<48|x7>>56<<56)
		dst = dst[8:]
		x0 = x0*textMul8 + textAdd8
		x1 = x1*textMul8 + textAdd8
		x2 = x2*textMul8 + textAdd8
		x3 = x3*textMul8 + textAdd8
		x4 = x4*textMul8 + textAdd8
		x5 = x5*textMul8 + textAdd8
		x6 = x6*textMul8 + textAdd8
		x7 = x7*textMul8 + textAdd8
	}
	lane = [8]uint64{x0, x1, x2, x3, x4, x5, x6, x7}
	for j := range dst {
		dst[j] = byte(lane[j] >> 56)
	}
}

// Texts remembers, per text seed, the longest .text payload built so far,
// so a fleet that installs images sharing a seed generates each payload
// once and copies it after that. The memo holds no bytes of its own: each
// entry is the payload inside an image it built, so every image built
// through Texts must stay unmodified for as long as the memo is used (a
// vfs.Blob never changes). The zero value is ready to use and safe for
// concurrent use.
type Texts struct {
	mu sync.Mutex
	m  map[uint32]*text
}

// text is one memo entry: a payload inside an image, complete once done
// is closed.
type text struct {
	payload []byte
	done    chan struct{}
}

// Build is elfimg.Build with the memo: the image's payload is copied from
// the memo when it holds at least as many bytes of the seed, and is
// generated and remembered otherwise. A nil *Texts builds without it.
func (t *Texts) Build(spec Spec) ([]byte, error) { return render(spec, t) }

// fill writes seed's payload into dst, an image's .text section. A
// request the memo can serve waits for the entry's payload to be complete
// (another image may be generating it) and copies it; any other request
// makes dst the seed's entry before generating it, so requests for no
// more bytes that arrive meanwhile wait for it instead of generating their
// own.
func (t *Texts) fill(dst []byte, seed uint32) {
	if t == nil {
		fillText(dst, seed)
		return
	}
	t.mu.Lock()
	if e := t.m[seed]; e != nil && len(e.payload) >= len(dst) {
		t.mu.Unlock()
		<-e.done
		copy(dst, e.payload)
		return
	}
	e := &text{payload: dst, done: make(chan struct{})}
	if t.m == nil {
		t.m = map[uint32]*text{}
	}
	t.m[seed] = e
	t.mu.Unlock()
	fillText(dst, seed)
	close(e.done)
}
