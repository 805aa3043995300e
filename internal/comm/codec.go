package comm

import "weipipe/internal/tensor"

// Wire codecs. A transport can negotiate a per-Tag payload encoding: belt
// traffic (whole weight and weight-gradient chunks) tolerates bf16 rounding
// and halves its wire bytes — the paper's communication-volume recipe —
// while control scalars, collectives and activation tensors stay f32.
//
// The codec is a property of the *send*: the payload is rounded through the
// codec's value domain at the send boundary (in process) or encoded at that
// width on the wire (TCP), so both transports deliver bit-identical values
// for the same codec choice.

// WireCodec names a payload encoding.
type WireCodec uint8

const (
	// CodecF32 ships payloads as 4-byte float32 (the default, lossless).
	CodecF32 WireCodec = iota
	// CodecBF16 ships payloads as 2-byte bfloat16 (round-to-nearest-even),
	// halving wire bytes at ~3 decimal digits of mantissa.
	CodecBF16

	// codecCount is one past the highest codec; the frame decoder validates
	// against it.
	codecCount
)

// bytesPerElem returns the wire width of one element under the codec.
func (c WireCodec) bytesPerElem() int {
	if c == CodecBF16 {
		return 2
	}
	return 4
}

// CodecFunc selects the codec for a message tag. A nil CodecFunc means
// CodecF32 for everything.
type CodecFunc func(Tag) WireCodec

// BeltBF16 is the codec policy matching the paper's wire format: weight and
// weight-gradient belt chunks (and their buddy-replication copies) travel
// in bf16; everything else — activations, collectives, control — stays f32.
func BeltBF16(tag Tag) WireCodec {
	switch tag.Kind {
	case KindWeight, KindGrad, KindBuddy:
		return CodecBF16
	}
	return CodecF32
}

// codecFor resolves f(tag) with the nil-policy default.
func codecFor(f CodecFunc, tag Tag) WireCodec {
	if f == nil {
		return CodecF32
	}
	return f(tag)
}

// applyCodec projects payload into the codec's value domain in place. The
// in-process transport uses it so receivers observe exactly the values a
// wire round-trip would produce.
func applyCodec(c WireCodec, payload []float32) {
	if c == CodecBF16 {
		tensor.RoundBF16Slice(payload)
	}
}
