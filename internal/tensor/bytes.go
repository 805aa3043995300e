package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"
)

// Little-endian float32 images without a copy. The wire and checkpoint
// formats store float32s as little-endian IEEE-754 words, which on every
// little-endian host is exactly how a []float32 already lies in memory: the
// transports and the checkpoint writer hand that memory to the socket or
// file as it is, and read incoming bytes straight into it. Big-endian hosts
// reverse each word around the same calls. This is the only file in the
// module that imports unsafe.

// hostLittleEndian reports whether a float32's memory is its wire image.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// F32Bytes returns x's own memory as 4·len(x) bytes in host byte order.
// The bytes alias x: writes through either are seen by the other, and the
// view keeps x's backing array alive.
func F32Bytes(x []float32) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 4*len(x))
}

// F32LE returns x's little-endian image for reading: x's own memory on a
// little-endian host (no copy — do not write through it), a byte-swapped
// copy on a big-endian one.
func F32LE(x []float32) []byte {
	b := F32Bytes(x)
	if !hostLittleEndian {
		b = append([]byte(nil), b...)
		swap32(b)
	}
	return b
}

// F32FromLE converts x in place from the little-endian image just read into
// F32Bytes(x) to host order — nothing to do on a little-endian host.
func F32FromLE(x []float32) {
	if !hostLittleEndian {
		swap32(F32Bytes(x))
	}
}

// UpdateCRC32 returns crc updated with the bytes of p: hash/crc32's
// Update(crc, crc32.IEEETable, p), bit for bit, so UpdateCRC32(0, p) is
// crc32.ChecksumIEEE(p) and chained calls checksum the concatenation. It is
// the one CRC of the wire frames, the belt Integrity trailer and the
// checkpoint files. On a CPU with AVX-512 and VPCLMULQDQ the multiple of 16
// bytes at the front of a long p runs the 512-bit kernel crc32AVX512
// (simd_avx512_amd64.s), which folds 256 bytes an iteration where
// hash/crc32's 128-bit loop folds 64; everywhere else, and for the few
// bytes left, it is hash/crc32 itself.
func UpdateCRC32(crc uint32, p []byte) uint32 {
	if crcWide && len(p) >= crcWideMin {
		n := len(p) &^ 15
		crc = ^crc32AVX512(^crc, p[:n])
		p = p[n:]
	}
	return crc32.Update(crc, crc32.IEEETable, p)
}

// crcWideMin is the shortest p UpdateCRC32 hands the 512-bit kernel. The
// kernel takes 256 bytes and more, but below 512 it runs no faster than
// hash/crc32's 64-byte loop.
const crcWideMin = 512

// swap32 reverses the bytes of every 4-byte word of b in place.
func swap32(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// crcBlock is how many elements CopyCRC32 and AddIntoCRC32 write before
// they checksum them: 32 KB, which the CRC reads back out of the L1/L2 the
// write left it in instead of from memory. On one core of a 2-core AVX-512
// host, over 820 800 floats, a copy then a CRC takes 642 µs and the blocked
// pair 376 µs, under the copy's own 408 µs; an AddInto then a CRC 553 µs,
// blocked 419 µs (BenchmarkSealedCopy).
const crcBlock = 8192

// CopyCRC32 copies src into dst, which must be as long, and returns the
// IEEE CRC-32 of dst's little-endian image — UpdateCRC32(0, F32LE(dst)) —
// checksumming each block as soon as it is copied.
func CopyCRC32(dst, src []float32) uint32 {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: CopyCRC32 size mismatch: %d vs %d", len(dst), len(src)))
	}
	var crc uint32
	for i := 0; i < len(dst); i += crcBlock {
		j := min(i+crcBlock, len(dst))
		copy(dst[i:j], src[i:j])
		crc = UpdateCRC32(crc, F32LE(dst[i:j]))
	}
	return crc
}

// AddIntoCRC32 is AddIntoF32(dst, a) — the same bits in dst — that also
// returns the IEEE CRC-32 of dst's little-endian image after the add,
// checksumming each block as soon as it is summed.
func AddIntoCRC32(dst, a []float32) uint32 {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("tensor: AddIntoCRC32 size mismatch: %d vs %d", len(dst), len(a)))
	}
	b := current()
	var crc uint32
	for i := 0; i < len(dst); i += crcBlock {
		j := min(i+crcBlock, len(dst))
		b.AddInto(dst[i:j], a[i:j])
		crc = UpdateCRC32(crc, F32LE(dst[i:j]))
	}
	return crc
}
