package tensor

import "math"

// This file emulates the paper's mixed-precision storage formats. The paper
// stores activations, weights and weight-gradients in fp16, activation
// gradients in bf16, and optimizer state in fp32. We compute in fp32 but can
// round values through fp16/bf16 so that the numerical behaviour (and the
// byte counts used by the cost model) match the paper's recipe.

// F32ToF16 converts a float32 to IEEE 754 binary16, round-to-nearest-even,
// with overflow to infinity and subnormal flushing handled per the standard.
func F32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff

	switch {
	case exp >= 0x1f: // overflow or inf/nan
		if int32(b>>23&0xff) == 0xff {
			if mant != 0 {
				return sign | 0x7e00 // nan
			}
			return sign | 0x7c00 // inf
		}
		return sign | 0x7c00
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		v := mant >> shift
		// round to nearest even
		if mant&(half<<1-1) > half || (mant&half != 0 && v&1 == 1) {
			v++
		}
		return sign | uint16(v)
	default:
		v := uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && v&1 == 1) {
			v++
		}
		return sign | v
	}
}

// F16ToF32 converts an IEEE 754 binary16 value to float32.
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f:
		if mant != 0 {
			return math.Float32frombits(sign | 0x7fc00000)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalise
		for mant&0x400 == 0 {
			mant <<= 1
			exp--
		}
		mant &= 0x3ff
		exp++
		return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
	}
}

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

// RoundF16 rounds every element of t through fp16 in place.
func RoundF16(t *Tensor) {
	for i, v := range t.Data {
		t.Data[i] = F16ToF32(F32ToF16(v))
	}
}

// RoundBF16 rounds every element of t through bf16 in place.
func RoundBF16(t *Tensor) {
	for i, v := range t.Data {
		t.Data[i] = BF16ToF32(F32ToBF16(v))
	}
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

// PackF16 encodes src into half-precision words.
func PackF16(src []float32) []uint16 {
	out := make([]uint16, len(src))
	for i, v := range src {
		out[i] = F32ToF16(v)
	}
	return out
}

// UnpackF16 decodes half-precision words into float32s.
func UnpackF16(src []uint16) []float32 {
	out := make([]float32, len(src))
	for i, v := range src {
		out[i] = F16ToF32(v)
	}
	return out
}
