package tensor

import (
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// UpdateCRC32 is hash/crc32's IEEE Update with a faster kernel behind it on
// some CPUs: every checksum the wire and the checkpoint files carry must
// stay the one hash/crc32 computes, whichever path a process runs.

func stdCRC(crc uint32, p []byte) uint32 { return crc32.Update(crc, crc32.IEEETable, p) }

// randomBytes returns n reproducible pseudo-random bytes.
func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// Every length from 0 to 4096 — each side of the 16-byte tail, the 64-byte
// loop and the kernel's 256-byte minimum — at byte offsets 0, 1, 7 and 13
// from an aligned start, from a zero and a non-zero initial CRC.
func TestUpdateCRC32EveryShortLength(t *testing.T) {
	buf := randomBytes(1, 4096+16)
	for _, off := range []int{0, 1, 7, 13} {
		for n := 0; n <= 4096; n++ {
			p := buf[off : off+n]
			for _, crc := range []uint32{0, 0xdeadbeef} {
				if got, want := UpdateCRC32(crc, p), stdCRC(crc, p); got != want {
					t.Fatalf("offset %d, length %d, crc %#x: %#x, hash/crc32 %#x", off, n, crc, got, want)
				}
			}
		}
	}
}

// 2 000 random windows of up to 4 MB, at random offsets and from random
// initial CRCs.
func TestUpdateCRC32RandomLengths(t *testing.T) {
	const most = 4 << 20
	buf := randomBytes(2, most+64)
	rng := rand.New(rand.NewSource(3))
	for i := range 2000 {
		n, off, crc := rng.Intn(most+1), rng.Intn(64), rng.Uint32()
		p := buf[off : off+n]
		if got, want := UpdateCRC32(crc, p), stdCRC(crc, p); got != want {
			t.Fatalf("case %d: offset %d, length %d, crc %#x: %#x, hash/crc32 %#x", i, off, n, crc, got, want)
		}
	}
}

// Chained calls over pieces split at arbitrary points checksum the whole:
// the frame reader folds a body in as it arrives, one socket read at a time.
func TestUpdateCRC32Chained(t *testing.T) {
	buf := randomBytes(4, 1<<20+77)
	want := crc32.ChecksumIEEE(buf)
	rng := rand.New(rand.NewSource(5))
	for i := range 200 {
		crc := uint32(0)
		for rest := buf; len(rest) > 0; {
			n := min(len(rest), rng.Intn(1<<(4+i%14))+1)
			crc = UpdateCRC32(crc, rest[:n])
			rest = rest[n:]
		}
		if crc != want {
			t.Fatalf("split %d: %#x, want %#x", i, crc, want)
		}
	}
}

// FuzzWireCRC holds UpdateCRC32 to hash/crc32 on arbitrary bytes from an
// arbitrary initial CRC, whole and split in two.
func FuzzWireCRC(f *testing.F) {
	f.Add(uint32(0), []byte{}, uint16(0))
	f.Add(uint32(0xffffffff), []byte("weipipe"), uint16(3))
	f.Add(uint32(0x12345678), randomBytes(6, 4096+13), uint16(300))
	f.Add(uint32(1), randomBytes(7, 256), uint16(255))
	f.Fuzz(func(t *testing.T, crc uint32, data []byte, split uint16) {
		want := stdCRC(crc, data)
		if got := UpdateCRC32(crc, data); got != want {
			t.Fatalf("length %d, crc %#x: %#x, hash/crc32 %#x", len(data), crc, got, want)
		}
		k := int(split) % (len(data) + 1)
		if got := UpdateCRC32(UpdateCRC32(crc, data[:k]), data[k:]); got != want {
			t.Fatalf("length %d split at %d, crc %#x: %#x, hash/crc32 %#x", len(data), k, crc, got, want)
		}
	})
}

// AddIntoCRC32 writes the bits AddIntoF32 writes and returns the checksum
// UpdateCRC32 takes of the result, at every length around the block
// boundary and on every backend.
func TestSealedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	prev := BackendName()
	t.Cleanup(func() {
		if err := SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	})
	lengths := []int{0, 1, 7, 8, 9, 127, crcBlock - 1, crcBlock, crcBlock + 1, 3*crcBlock + 5, 820800}
	for _, name := range Backends() {
		if err := SetBackend(name); err != nil {
			t.Fatal(err)
		}
		for _, n := range lengths {
			src, acc := make([]float32, n), make([]float32, n)
			for i := range src {
				src[i], acc[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
			}
			want := append([]float32(nil), acc...)
			AddIntoF32(want, src)
			crc := AddIntoCRC32(acc, src)
			for i := range acc {
				if math.Float32bits(acc[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s n=%d: AddIntoCRC32 [%d] = %v, AddIntoF32 %v", name, n, i, acc[i], want[i])
				}
			}
			if want := UpdateCRC32(0, F32LE(want)); crc != want {
				t.Fatalf("%s n=%d: AddIntoCRC32 = %#x, UpdateCRC32 of the sum %#x", name, n, crc, want)
			}
		}
	}
}
