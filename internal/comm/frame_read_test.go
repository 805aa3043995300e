package comm

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"weipipe/internal/tensor"
)

// The frame reader checksums a body one socket read at a time, at most
// frameReadMax bytes a read. These tests pin that this is invisible: every
// way a stream can be cut into reads decodes to what reading the whole body
// and then checksumming it did, a corrupted byte on either side of a piece
// boundary is still caught without losing the stream, and a stream that
// ends inside a body fails as io.ReadFull fails.

// frameResult is one decoded frame, or the error that ended decoding.
type frameResult struct {
	h      frameHeader
	image  []byte // the payload's wire image
	synced bool
	err    error
}

// readWholeFrame is the reference decoder: the header and then the whole
// body with io.ReadFull, the CRC over the body afterwards.
func readWholeFrame(r io.Reader) frameResult {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameResult{err: err}
	}
	h, err := parseFrameHeader(hdr[:], 4, 0)
	if err != nil {
		return frameResult{err: err}
	}
	body := make([]byte, h.codec.bytesPerElem()*h.n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frameResult{err: err}
	}
	if frameCRC(hdr[:], crc32.ChecksumIEEE(body), len(body)) != h.crc {
		return frameResult{synced: true, err: &CorruptionError{}}
	}
	return frameResult{h: h, image: body, synced: true}
}

// readFrame decodes one frame with the production reader.
func readFrame(fr *frameReader) frameResult {
	h, payload, synced, err := fr.next()
	if err != nil {
		return frameResult{synced: synced, err: err}
	}
	defer Release(payload)
	image := bytes.Clone(tensor.F32LE(payload))
	if h.codec == CodecBF16 {
		image = make([]byte, 2*len(payload))
		tensor.PackBF16LE(image, payload)
	}
	return frameResult{h: h, image: image, synced: synced}
}

// decodeAll decodes frames until the first error, which it includes.
func decodeAll(next func() frameResult) []frameResult {
	var out []frameResult
	for {
		res := next()
		out = append(out, res)
		if res.err != nil {
			return out
		}
	}
}

// sameResult reports whether two decodings agree: the same header and
// image bit for bit, or the same error — the same sentinel, or both a
// *CorruptionError — with the same synced verdict.
func sameResult(a, b frameResult) bool {
	var ca, cb *CorruptionError
	switch {
	case a.synced != b.synced:
		return false
	case errors.As(a.err, &ca) || errors.As(b.err, &cb):
		return errors.As(a.err, &ca) && errors.As(b.err, &cb)
	case a.err != nil || b.err != nil:
		return a.err == b.err
	}
	return a.h == b.h && bytes.Equal(a.image, b.image)
}

// testStream is a small f32 frame, bodies of more than one read in both
// codecs, an empty frame and an ack.
func testStream(t *testing.T) []byte {
	t.Helper()
	big := make([]float32, frameReadMax/4+20_000) // 336 KB: two reads
	for i := range big {
		big[i] = float32(math.Sin(float64(i))) * 1e3
	}
	var stream []byte
	stream = append(stream, encodeFrame(1, uint32(KindAct), 0, 2, 3, 1, CodecF32, []float32{1, -2, 3})...)
	stream = append(stream, encodeFrame(2, uint32(KindWeight), 0, 0, 5, 2, CodecF32, big)...)
	stream = append(stream, encodeFrame(3, kindField(KindGrad, CodecBF16), 0, 1, 1, 3, CodecBF16, big)...)
	stream = append(stream, encodeFrame(0, uint32(KindCtl), 0, 0, 0, 4, CodecF32, nil)...)
	return append(stream, encodeCtlFrame(1, ctlAck, 0, 3)...)
}

// Decoding the same frames through readers that return one byte, half the
// asked-for bytes, data with the EOF, or a timeout on the second read gives
// what the whole-body read gives through each of them — and, through the
// readers that lose nothing, every frame of the stream.
func TestFrameReaderMatchesWholeBodyRead(t *testing.T) {
	stream := testStream(t)
	for _, wrap := range []struct {
		name     string
		r        func(io.Reader) io.Reader
		lossless bool
	}{
		{"plain", func(r io.Reader) io.Reader { return r }, true},
		{"one-byte", iotest.OneByteReader, true},
		{"half", iotest.HalfReader, true},
		{"data-err", iotest.DataErrReader, true},
		{"timeout", iotest.TimeoutReader, false},
	} {
		t.Run(wrap.name, func(t *testing.T) {
			ref := wrap.r(bytes.NewReader(stream))
			want := decodeAll(func() frameResult { return readWholeFrame(ref) })
			fr := &frameReader{r: wrap.r(bytes.NewReader(stream)), size: 4}
			got := decodeAll(func() frameResult { return readFrame(fr) })
			if len(got) != len(want) {
				t.Fatalf("%d results, whole-body read %d", len(got), len(want))
			}
			for i := range want {
				if !sameResult(got[i], want[i]) {
					t.Fatalf("frame %d: %+v, whole-body read %+v", i, got[i].err, want[i].err)
				}
			}
			if wrap.lossless && (len(got) != 6 || got[5].err != io.EOF) {
				t.Fatalf("decoded %d results ending in %v, want 5 frames and io.EOF", len(got), got[len(got)-1].err)
			}
		})
	}
}

// A byte flipped at the body's first byte, on either side of the first
// piece boundary or at the body's last byte fails that frame alone: a
// synced *CorruptionError, and the next frame decodes.
func TestFrameReaderCorruptionAtPieceEdges(t *testing.T) {
	body := make([]float32, frameReadMax/4+1000)
	for i := range body {
		body[i] = float32(i)
	}
	frame := encodeFrame(2, uint32(KindWeight), 0, 0, 0, 9, CodecF32, body)
	next := encodeFrame(2, uint32(KindWeight), 0, 0, 1, 10, CodecF32, []float32{7})
	for _, at := range []int{0, frameReadMax - 1, frameReadMax, 4*len(body) - 1} {
		bad := append(bytes.Clone(frame), next...)
		bad[frameHeaderLen+at] ^= 0x20
		for _, wrap := range []func(io.Reader) io.Reader{func(r io.Reader) io.Reader { return r }, iotest.HalfReader} {
			fr := &frameReader{r: wrap(bytes.NewReader(bad)), size: 4}
			_, payload, synced, err := fr.next()
			var ce *CorruptionError
			if !errors.As(err, &ce) || !synced || payload != nil {
				t.Fatalf("flip at body byte %d: err %v, synced=%v; want a synced *CorruptionError", at, err, synced)
			}
			h, payload, _, err := fr.next()
			if err != nil || h.seq != 10 || payload[0] != 7 {
				t.Fatalf("flip at body byte %d: the next frame decoded as seq %d, %v", at, h.seq, err)
			}
			Release(payload)
		}
	}
}

// A stream that ends inside a body fails with io.ErrUnexpectedEOF and is
// not synced, wherever inside the body it ends.
func TestFrameReaderEOFInsideBody(t *testing.T) {
	body := make([]float32, frameReadMax/4+1000)
	frame := encodeFrame(2, uint32(KindWeight), 0, 0, 0, 9, CodecF32, body)
	for _, cut := range []int{1, frameReadMax - 1, frameReadMax, frameReadMax + 1, 4*len(body) - 1} {
		for _, wrap := range []func(io.Reader) io.Reader{func(r io.Reader) io.Reader { return r }, iotest.DataErrReader} {
			fr := &frameReader{r: wrap(bytes.NewReader(frame[:frameHeaderLen+cut])), size: 4}
			_, payload, synced, err := fr.next()
			if err != io.ErrUnexpectedEOF || synced || payload != nil {
				t.Fatalf("stream cut %d bytes into the body: err %v, synced=%v; want io.ErrUnexpectedEOF, unsynced", cut, err, synced)
			}
		}
	}
}
