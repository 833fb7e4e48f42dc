package elfimg

import (
	"bytes"
	"runtime"
	"testing"
)

// referenceFill is the payload generator stepped one byte at a time: the
// definition fillText's eight-lane kernel must reproduce.
func referenceFill(dst []byte, seed uint32) {
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := range dst {
		x = x*2862933555777941757 + 3037000493
		dst[i] = byte(x >> 56)
	}
}

// referenceText returns the first n payload bytes of seed.
func referenceText(n int, seed uint32) []byte {
	out := make([]byte, n)
	referenceFill(out, seed)
	return out
}

// checkFill fills n bytes of seed's payload into a buffer with guard bytes
// behind it and compares them with the reference.
func checkFill(t *testing.T, n int, seed uint32) {
	t.Helper()
	buf := bytes.Repeat([]byte{0xa5}, n+16)
	fillText(buf[:n:n], seed)
	if want := referenceText(n, seed); !bytes.Equal(buf[:n], want) {
		t.Fatalf("seed %#x, %d bytes: kernel output differs from the reference", seed, n)
	}
	if !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xa5}, 16)) {
		t.Fatalf("seed %#x, %d bytes: kernel wrote past the end", seed, n)
	}
}

// TestTextFillMatchesReference: the eight-lane kernel gives the per-byte
// generator's bytes for every length up to 64, around 4 KiB and at
// 1 MiB, whole words or not, over several seeds.
func TestTextFillMatchesReference(t *testing.T) {
	seeds := []uint32{0, 1, 0x7fffffff, 0xdeadbeef, 0xffffffff, textSeed(sampleLibSpec())}
	var lengths []int
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for n := 4<<10 - 9; n <= 4<<10+9; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1<<20, 1<<20+5)
	for _, seed := range seeds {
		for _, n := range lengths {
			checkFill(t, n, seed)
		}
	}
}

// TestBuildAllocatesImageOnce: building an image allocates the image and
// little else; the payload is written into it, not into a buffer of its
// own that is then copied.
func TestBuildAllocatesImageOnce(t *testing.T) {
	spec := sampleLibSpec()
	spec.TextSize = 4 << 20
	size := len(MustBuild(spec))
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		MustBuild(spec)
	}
	runtime.ReadMemStats(&after)
	perBuild := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per build of a %d-byte image (%.3fx)", perBuild, size, perBuild/float64(size))
	if perBuild >= 1.25*float64(size) {
		t.Errorf("a build allocates %.0f bytes, %.2fx its %d-byte image (limit 1.25x)", perBuild, perBuild/float64(size), size)
	}
}

// FuzzTextFill compares the kernel with the reference at any seed and
// length, and a memo fed two lengths of one seed in either order.
func FuzzTextFill(f *testing.F) {
	f.Add(uint32(0), uint16(0), uint16(7))
	f.Add(uint32(1), uint16(100), uint16(5000))
	f.Add(uint32(0xdeadbeef), uint16(4099), uint16(8))
	f.Add(uint32(0xffffffff), uint16(65535), uint16(65529))
	f.Fuzz(func(t *testing.T, seed uint32, a, b uint16) {
		checkFill(t, int(a), seed)
		var texts Texts
		for _, n := range []int{int(a), int(b)} {
			dst := make([]byte, n)
			texts.fill(dst, seed)
			if !bytes.Equal(dst, referenceText(n, seed)) {
				t.Fatalf("seed %#x: memo fill of %d bytes after %d differs from the reference", seed, n, a)
			}
		}
	})
}

// BenchmarkTextFill compares the kernel with the per-byte generator on a
// 1 MiB payload.
func BenchmarkTextFill(b *testing.B) {
	dst := make([]byte, 1<<20)
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(int64(len(dst)))
		for i := 0; i < b.N; i++ {
			fillText(dst, uint32(i))
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(dst)))
		for i := 0; i < b.N; i++ {
			referenceFill(dst, uint32(i))
		}
	})
}
