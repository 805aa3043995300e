package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"weipipe/internal/tensor"
)

// TCP wire framing. Every frame is:
//
//	src u32 | kind u32 | epoch u32 | a i64 | b i64 | seq u64 | n u64 | crc u32 | payload n elems
//
// all little-endian. The kind field carries the application Kind in its low
// byte and the payload codec in its second byte (bits 8–15): CodecF32
// payloads are n×4 bytes of float32, CodecBF16 payloads are n×2 bytes of
// bfloat16 — the belt's half-width wire format. epoch is the cluster
// incarnation the sender belongs to: after an elastic repair the survivors
// rebuild the mesh under a bumped epoch, and a receiver drops (without
// acknowledging, and without refreshing liveness) any frame from a stale
// epoch — the split-brain fence that keeps a zombie segment of a
// partitioned ring from ever feeding frames into the repaired one. seq is
// the per-link data sequence number (1-based; 0 marks unsequenced control
// frames), used for redelivery dedup and reordering. crc is CRC32 (IEEE)
// over the header bytes before the crc field and the payload, so both a
// corrupted length field and a corrupted payload are detected. Control
// frames reuse the same layout with kind values outside the application
// Kind space: acks carry the cumulative acknowledged sequence in a,
// heartbeats are empty.
//
// Nothing is ever encoded into or decoded out of that layout: a []float32
// in memory already is its little-endian payload image (tensor.F32Bytes;
// big-endian hosts byte-swap around the same calls), so the sender
// seals a header around the payload's own bytes and hands both to writev,
// and the reader reads the socket straight into a pooled buffer's bytes.
// The format itself is unchanged from the per-element encoder it replaced,
// byte for byte (TestWireImageGolden).
const (
	frameHeaderLen = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4
	frameCRCOffset = frameHeaderLen - 4

	// Control frame kinds, disjoint from the application Kind space.
	ctlAck       uint32 = 0xFFFFFFF0
	ctlHeartbeat uint32 = 0xFFFFFFF1
	// 0xFFFFFFF2 was the burst envelope of a retired packaging mode. It is
	// refused like any unknown kind: its length field counted bytes, not
	// elements, so half-understanding it would mis-frame the stream.

	// maxAppKind is the largest application Kind a frame may carry.
	maxAppKind = uint32(kindCount) - 1

	// codecShift positions the codec byte inside the kind field.
	codecShift = 8

	// defaultMaxFrameElems bounds the payload element count a decoder will
	// allocate for (1 GiB of float32s). Every TCP link reads under it; the
	// fuzz targets pass a lower bound.
	defaultMaxFrameElems = 1 << 28
)

// frameHeader is the decoded fixed-size frame prefix.
type frameHeader struct {
	src   int
	kind  uint32 // raw kind field; low byte is the app Kind for data frames
	epoch uint32 // cluster incarnation of the sender
	codec WireCodec
	a, b  int64
	seq   uint64
	n     int
	crc   uint32
}

// tag returns the application tag of a data frame.
func (h frameHeader) tag() Tag {
	return Tag{Kind: Kind(h.kind & 0xff), A: int(h.a), B: int(h.b)}
}

// isCtl reports whether the frame is a control (ack/heartbeat) frame.
func (h frameHeader) isCtl() bool {
	return h.kind == ctlAck || h.kind == ctlHeartbeat
}

// parseFrameHeader validates and decodes a frame header. size bounds the
// src field (size <= 0 skips the check, for fuzzing); maxElems bounds the
// payload element count (<= 0 selects the default). All failures return a
// *CorruptionError — the decoder never panics and never allocates based on
// an unvalidated length.
func parseFrameHeader(hdr []byte, size, maxElems int) (frameHeader, error) {
	if len(hdr) != frameHeaderLen {
		return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("header length %d != %d", len(hdr), frameHeaderLen)}
	}
	if maxElems <= 0 {
		maxElems = defaultMaxFrameElems
	}
	h := frameHeader{
		src:   int(int32(binary.LittleEndian.Uint32(hdr[0:4]))),
		kind:  binary.LittleEndian.Uint32(hdr[4:8]),
		epoch: binary.LittleEndian.Uint32(hdr[8:12]),
		a:     int64(binary.LittleEndian.Uint64(hdr[12:20])),
		b:     int64(binary.LittleEndian.Uint64(hdr[20:28])),
		seq:   binary.LittleEndian.Uint64(hdr[28:36]),
		crc:   binary.LittleEndian.Uint32(hdr[frameCRCOffset:frameHeaderLen]),
	}
	n := binary.LittleEndian.Uint64(hdr[36:44])
	if h.src < 0 || (size > 0 && h.src >= size) {
		return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("source rank %d out of range", h.src)}
	}
	if !h.isCtl() {
		if h.kind>>(2*codecShift) != 0 || h.kind&0xff > maxAppKind {
			return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("unknown frame kind %#x", h.kind)}
		}
		codec := WireCodec(h.kind >> codecShift)
		if codec >= codecCount {
			return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("unknown payload codec %d", codec)}
		}
		h.codec = codec
	}
	if n > uint64(maxElems) {
		return frameHeader{}, &CorruptionError{Reason: fmt.Sprintf("implausible payload length %d elems", n)}
	}
	h.n = int(n)
	return h, nil
}

// kindField builds a data frame's kind field from the app Kind and codec.
func kindField(kind Kind, codec WireCodec) uint32 {
	return uint32(kind) | uint32(codec)<<codecShift
}

// outFrame is one outgoing frame in the only form the transport keeps: the
// sealed 48-byte header and the payload's own bytes. A frame is enqueued
// with the raw payload and sealed lazily by the link's writer goroutine;
// from then on hdr and body are what every write — first transmission or
// retransmit — hands to the socket. The link owns payload from enqueue
// until the frame is acknowledged (or the link shuts down): body aliases it,
// so it cannot go back to the pool while a write may still be reading it.
// Only the writer touches payload, hdr and body after enqueue; the ack
// handler reads seq alone.
type outFrame struct {
	seq     uint64
	tag     Tag
	codec   WireCodec
	payload []float32 // pool buffer behind body; nil once released
	sealed  bool
	hdr     [frameHeaderLen]byte
	body    []byte // the payload's wire image: a view of payload, not a copy

	// bodyCRC, when crcKnown, is the CRC of the payload's f32 wire image as
	// this rank's reader verified it on receipt (Forward): the seal combines
	// it with the header's instead of reading the body again.
	bodyCRC  uint32
	crcKnown bool
}

// seal fixes the frame's wire image. An f32 payload is its own image
// (tensor.F32LE); a bf16 payload is packed once into a pooled buffer half
// the size, which replaces it. The CRC (tensor.UpdateCRC32) is computed
// here, once, and rides in hdr for every later transmission; a forwarded f32
// payload's body CRC is already known, and only the header is read.
func (f *outFrame) seal(src int, epoch uint32) {
	n := len(f.payload)
	if f.codec == CodecBF16 {
		packed := GetBuf((n + 1) / 2)
		f.body = tensor.F32Bytes(packed)[:2*n]
		tensor.PackBF16LE(f.body, f.payload)
		Release(f.payload)
		f.payload = packed
	} else {
		f.body = tensor.F32LE(f.payload)
	}
	bodyCRC := f.bodyCRC
	if !f.crcKnown {
		bodyCRC = tensor.UpdateCRC32(0, f.body)
	}
	sealHeader(&f.hdr, src, kindField(f.tag.Kind, f.codec), epoch, int64(f.tag.A), int64(f.tag.B), f.seq, n, bodyCRC, len(f.body))
	f.sealed = true
}

// checkUnwritten is Forward's guard under SetBufPoison: it panics unless
// payload's f32 wire image still has the checksum its reader verified.
func checkUnwritten(payload []float32, crc uint32) {
	if got := ChecksumSlice(payload); got != crc {
		panic(fmt.Sprintf("comm: Forward of a payload written since receipt (crc %#x, received %#x)", got, crc))
	}
}

// release returns the retained payload to the pool, exactly once.
func (f *outFrame) release() {
	Release(f.payload)
	f.payload, f.body = nil, nil
}

// appendTo adds the frame's wire pieces to a writev batch.
func (f *outFrame) appendTo(bufs net.Buffers) net.Buffers {
	bufs = append(bufs, f.hdr[:])
	if len(f.body) > 0 {
		bufs = append(bufs, f.body)
	}
	return bufs
}

// image materialises the frame as one contiguous buffer, for the chaos
// injector, which flips, holds and replays whole frames; the writev path
// never calls it.
func (f *outFrame) image() []byte {
	return append(append(make([]byte, 0, frameHeaderLen+len(f.body)), f.hdr[:]...), f.body...)
}

// newCtlFrame builds a sealed control frame (ack/heartbeat); control
// payloads are always empty and carry no codec.
func newCtlFrame(src int, kind, epoch uint32, a int64) *outFrame {
	f := &outFrame{sealed: true}
	sealHeader(&f.hdr, src, kind, epoch, a, 0, 0, 0, 0, 0)
	return f
}

// sealHeader writes a frame header for a payload of n elements whose wire
// image is bodyLen bytes with CRC bodyCRC, the frame's CRC included.
func sealHeader(hdr *[frameHeaderLen]byte, src int, kind, epoch uint32, a, b int64, seq uint64, n int, bodyCRC uint32, bodyLen int) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(src))
	binary.LittleEndian.PutUint32(hdr[4:8], kind)
	binary.LittleEndian.PutUint32(hdr[8:12], epoch)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(a))
	binary.LittleEndian.PutUint64(hdr[20:28], uint64(b))
	binary.LittleEndian.PutUint64(hdr[28:36], seq)
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(n))
	binary.LittleEndian.PutUint32(hdr[frameCRCOffset:], frameCRC(hdr[:], bodyCRC, bodyLen))
}

// frameCRC computes a frame's checksum — CRC-32 (IEEE) over the header
// bytes before the CRC field, then the payload bytes — from the payload's
// own CRC, which the writer takes in one pass over the body (or, for a
// forwarded payload, already has) and the reader folds up as the body
// arrives.
func frameCRC(hdr []byte, bodyCRC uint32, bodyLen int) uint32 {
	return crc32Combine(tensor.UpdateCRC32(0, hdr[:frameCRCOffset]), bodyCRC, int64(bodyLen))
}

// crc32Combine returns the IEEE CRC-32 of the concatenation A‖B from
// crc1 = CRC(A), crc2 = CRC(B) and len2 = len(B), in O(log len2) — zlib's
// crc32_combine. CRC-32 is linear over GF(2): CRC(A‖B) is CRC(A) shifted
// through len2 zero bytes (a multiplication by x^(8·len2) modulo the
// polynomial), xored with CRC(B).
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	return multModP(x2nModP(len2, 3), crc1) ^ crc2
}

// crcPoly is the IEEE polynomial, bit-reflected (x^32 implied).
const crcPoly = 0xedb88320

// multModP returns a·b modulo the CRC polynomial; bit 31 is x^0. a must be
// non-zero.
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ crcPoly
		} else {
			b >>= 1
		}
	}
}

// x2nTable[k] is x^(2^k) modulo the CRC polynomial.
var x2nTable = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	t[0] = p
	for k := 1; k < len(t); k++ {
		p = multModP(p, p)
		t[k] = p
	}
	return t
}()

// x2nModP returns x^(n·2^k) modulo the CRC polynomial.
func x2nModP(n int64, k uint) uint32 {
	p := uint32(1) << 31 // x^0
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			p = multModP(x2nTable[k&31], p)
		}
		k++
	}
	return p
}

// frameReader decodes a connection's wire stream one frame at a time,
// straight off the socket into pooled payload buffers.
type frameReader struct {
	r        io.Reader
	size     int
	maxElems int
	hdr      [frameHeaderLen]byte // the header being decoded
}

// frameReadMax bounds one body read, so each piece is checksummed while the
// copy that landed it has left it in the core's L1/L2.
const frameReadMax = 256 << 10

// next returns the next frame; the caller owns the pooled payload. The
// payload is read from the socket directly into the buffer's own memory, the
// CRC verified over those bytes, and the conversion done in place: f32 is
// already the buffer's contents; bf16 is read into the upper half and
// widened front to back. The body is read at most frameReadMax bytes at a
// time, and each piece is folded into the body's CRC as soon as it lands;
// the body's CRC is then combined with the header's, and an f32 payload's is
// remembered for Forward (crcs.remember). synced == true with a
// *CorruptionError means one frame was lost but the stream remains aligned
// on a frame boundary, so the caller may keep reading; any other error
// requires connection teardown.
func (fr *frameReader) next() (h frameHeader, payload []float32, synced bool, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return frameHeader{}, nil, false, err
	}
	h, err = parseFrameHeader(fr.hdr[:], fr.size, fr.maxElems)
	if err != nil {
		return frameHeader{}, nil, false, err
	}
	payload = GetBuf(h.n)
	body := tensor.F32Bytes(payload)
	if h.codec == CodecBF16 {
		body = body[2*h.n:]
	}
	bodyCRC, err := fr.readBody(body)
	if err != nil {
		Release(payload)
		return frameHeader{}, nil, false, err
	}
	if got := frameCRC(fr.hdr[:], bodyCRC, len(body)); got != h.crc {
		// The length field was covered by the header checks and the payload
		// was fully consumed: the stream is still frame-aligned.
		Release(payload)
		return frameHeader{}, nil, true, &CorruptionError{Reason: fmt.Sprintf("payload CRC mismatch (got %#x want %#x)", got, h.crc)}
	}
	if h.codec == CodecBF16 {
		tensor.WidenBF16LE(payload)
	} else {
		crcs.remember(payload, bodyCRC)
		tensor.F32FromLE(payload)
	}
	return h, payload, true, nil
}

// readBody fills body from the stream as io.ReadFull does, errors included
// (EOF before the first byte is io.EOF, after it io.ErrUnexpectedEOF), and
// returns the body's CRC, folded up one read at a time.
func (fr *frameReader) readBody(body []byte) (uint32, error) {
	var crc uint32
	for n := 0; n < len(body); {
		k, err := fr.r.Read(body[n:min(len(body), n+frameReadMax)])
		crc = tensor.UpdateCRC32(crc, body[n:n+k])
		n += k
		switch {
		case n == len(body):
		case err == io.EOF && n > 0:
			return 0, io.ErrUnexpectedEOF
		case err != nil:
			return 0, err
		}
	}
	return crc, nil
}
