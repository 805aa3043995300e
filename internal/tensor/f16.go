package tensor

import "math"

// The one reduced-precision format: bfloat16, fp32's 8-bit exponent with a
// 7-bit mantissa — the width weight and gradient belt chunks can travel at
// (comm.BeltBF16) while masters, moments and compute stay fp32, the paper's
// recipe. Which payloads travel as bf16 is the transport's codec decision;
// this file only converts.

// F32ToBF16 converts a float32 to bfloat16 (stored in uint16), with
// round-to-nearest-even. NaNs are preserved quiet.
func F32ToBF16(f float32) uint16 {
	b := math.Float32bits(f)
	if b&0x7fffffff > 0x7f800000 { // nan
		return uint16(b>>16) | 0x0040
	}
	rounding := uint32(0x7fff + (b>>16)&1)
	return uint16((b + rounding) >> 16)
}

// BF16ToF32 converts a bfloat16 value back to float32.
func BF16ToF32(h uint16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// RoundBF16Slice rounds every element of x through bf16 in place — the
// value-domain effect of shipping x over a bf16 wire and decoding it back.
func RoundBF16Slice(x []float32) {
	for i, v := range x {
		x[i] = BF16ToF32(F32ToBF16(v))
	}
}

// PackBF16LE encodes src as little-endian bf16 words into dst, which must
// hold 2·len(src) bytes. It allocates nothing; the transports use it to
// halve belt payloads on the wire.
func PackBF16LE(dst []byte, src []float32) {
	if len(dst) < 2*len(src) {
		panic("tensor: PackBF16LE dst too short")
	}
	for i, v := range src {
		h := F32ToBF16(v)
		dst[2*i] = byte(h)
		dst[2*i+1] = byte(h >> 8)
	}
}

// UnpackBF16LE decodes little-endian bf16 words from src into dst, which
// must hold len(src)/2 float32s. It allocates nothing.
func UnpackBF16LE(dst []float32, src []byte) {
	n := len(src) / 2
	if len(dst) < n {
		panic("tensor: UnpackBF16LE dst too short")
	}
	for i := 0; i < n; i++ {
		h := uint16(src[2*i]) | uint16(src[2*i+1])<<8
		dst[i] = BF16ToF32(h)
	}
}

// WidenBF16LE decodes, in place, the len(x) little-endian bf16 words lying
// in the upper half of x's own memory (bytes 2·len(x) onward of
// F32Bytes(x), where a receiver read them) into x — the result
// UnpackBF16LE gives, without a staging buffer. Element i's word sits at
// byte 2n+2i and its float32 lands at byte 4i ≤ 2n+2i, so a front-to-back
// pass overwrites only words it has already decoded.
func WidenBF16LE(x []float32) {
	src := F32Bytes(x)[2*len(x):]
	for i := range x {
		h := uint16(src[2*i]) | uint16(src[2*i+1])<<8
		x[i] = BF16ToF32(h)
	}
}
