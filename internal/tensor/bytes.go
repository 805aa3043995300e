package tensor

import (
	"encoding/binary"
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

// swap32 reverses the bytes of every 4-byte word of b in place.
func swap32(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}
