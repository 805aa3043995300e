package comm

import (
	"fmt"
	"io"
	"net"

	"weipipe/internal/tensor"
)

// Burst envelopes — the batched P2P mode's wire unit.
//
// A burst is a control frame (kind ctlBurst) whose payload is a
// back-to-back run of complete inner frames, each retaining its own
// header, sequence number, and CRC:
//
//	envelope header (a = inner count, n = payload BYTES, CRC over the
//	header only) | inner frame | inner frame | ...
//
// The envelope CRC deliberately excludes the payload: every inner frame
// already seals itself, so re-checksumming the concatenation would turn
// one flipped bit anywhere in the burst into the loss of every frame in
// it. With header-only sealing, a corrupt byte inside one inner frame
// fails only that frame's CRC — its siblings decode and deliver, the
// damaged frame stays unacknowledged, and the sender retransmits just it.
// Corruption that lands in an inner *header* (so the decoder can no
// longer find the next frame boundary) ends decoding of the rest of the
// burst; the envelope's byte count still bounds the read, so the outer
// stream stays frame-aligned and the usual retransmission path repairs
// the tail.
//
// Receivers are permanently burst-capable regardless of their own
// configured mode: the mode is a sender-local packaging decision, which
// is what makes mid-run mode switches trivially safe.
const (
	// maxBurstFrames bounds the inner frames per envelope; the send
	// window (32) never exceeds it, so one drain is at most one full
	// envelope plus change.
	maxBurstFrames = 64
)

// burstByteCap bounds a plausible envelope payload: one maximal data
// frame's payload plus headers for a full envelope of frames. Any single
// legal frame fits (so oversized payloads travel as a burst of one), and
// a corrupt length field cannot make the decoder allocate more than the
// transport's existing per-frame cap already allows.
func burstByteCap(maxElems int) uint64 {
	if maxElems <= 0 {
		maxElems = defaultMaxFrameElems
	}
	return uint64(maxElems)*4 + maxBurstFrames*frameHeaderLen
}

// encodeBurstHeader builds the envelope header for a burst of count inner
// frames totalling payloadBytes of wire. The CRC covers the header only
// (see the package comment above).
func encodeBurstHeader(src int, epoch uint32, count int, payloadBytes int) []byte {
	var hdr [frameHeaderLen]byte
	sealHeader(&hdr, src, ctlBurst, epoch, int64(count), 0, 0, payloadBytes, nil)
	return hdr[:]
}

// splitBursts groups sealed frames into envelope-sized runs respecting
// maxBurstFrames and the receiver's byte cap. A frame larger than the cap
// on its own (impossible for legal frames, but the bound is defensive)
// travels as a run of one.
func splitBursts(maxElems int, frames []*outFrame) [][]*outFrame {
	cap64 := burstByteCap(maxElems)
	var groups [][]*outFrame
	start, curBytes := 0, uint64(0)
	for i, f := range frames {
		w := uint64(f.wireLen())
		if i > start && (i-start >= maxBurstFrames || curBytes+w > cap64) {
			groups = append(groups, frames[start:i])
			start, curBytes = i, 0
		}
		curBytes += w
	}
	if start < len(frames) {
		groups = append(groups, frames[start:])
	}
	return groups
}

// appendBurst adds one envelope — header, then each inner frame's own
// header and payload bytes — to a writev batch.
func appendBurst(bufs net.Buffers, src int, epoch uint32, run []*outFrame) net.Buffers {
	total := 0
	for _, f := range run {
		total += f.wireLen()
	}
	bufs = append(bufs, encodeBurstHeader(src, epoch, len(run), total))
	for _, f := range run {
		bufs = f.appendTo(bufs)
	}
	return bufs
}

// burstImage materialises one envelope as a contiguous buffer, for the
// chaos write path (see outFrame.image).
func burstImage(src int, epoch uint32, run []*outFrame) []byte {
	var out []byte
	for _, piece := range appendBurst(nil, src, epoch, run) {
		out = append(out, piece...)
	}
	return out
}

// frameReader decodes a connection's wire stream one frame at a time,
// straight off the socket into pooled payload buffers, transparently
// unpacking burst envelopes: while an envelope is open, next hands out its
// inner frames as they arrive. This is what makes every receiver
// mode-agnostic — plain frames and bursts interleave freely on the same
// connection.
//
// Inside an envelope, an inner frame whose payload fails its CRC is one
// synced *CorruptionError — its siblings are unaffected. A malformed
// structure — truncated inner frame, implausible inner header, nested
// envelope, or a frame-count mismatch against the envelope header — ends
// the burst with one synced *CorruptionError after the rest of the
// envelope's byte count has been consumed, so every outcome leaves the
// outer stream aligned; frames handed out before the damage stay delivered.
type frameReader struct {
	r        io.Reader
	size     int
	maxElems int
	hdr      [frameHeaderLen]byte // the header being decoded

	// The open burst envelope: payload bytes still unread, the inner-frame
	// count its header declared, and the inner frames seen so far. All
	// zero when no envelope is open (a clean envelope ends with no bytes
	// left and seen == count).
	burstBytes int
	burstCount int
	burstSeen  int
}

// next returns the next frame; the caller owns the pooled payload. synced
// == true with a *CorruptionError means one frame was lost but the stream
// remains aligned on a frame boundary, so the caller may keep reading; any
// other error requires connection teardown.
func (fr *frameReader) next() (h frameHeader, payload []float32, synced bool, err error) {
	for {
		if fr.burstBytes > 0 {
			return fr.nextInner()
		}
		if fr.burstSeen != fr.burstCount {
			return fr.endBurst(fmt.Sprintf("inner frame count %d != envelope's %d", fr.burstSeen, fr.burstCount))
		}
		if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
			return frameHeader{}, nil, false, err
		}
		h, err := parseFrameHeader(fr.hdr[:], fr.size, fr.maxElems)
		if err != nil {
			return frameHeader{}, nil, false, err
		}
		if h.kind != ctlBurst {
			return fr.readPayload(h)
		}
		// Burst envelope. The header seals itself; a mismatch means the
		// byte count cannot be trusted, so alignment is lost.
		if got := frameCRC(fr.hdr[:], nil); got != h.crc {
			return frameHeader{}, nil, false, &CorruptionError{Reason: fmt.Sprintf("burst envelope CRC mismatch (got %#x want %#x)", got, h.crc)}
		}
		fr.burstBytes, fr.burstCount, fr.burstSeen = h.n, int(h.a), 0
	}
}

// nextInner decodes the next inner frame of the open envelope.
func (fr *frameReader) nextInner() (frameHeader, []float32, bool, error) {
	if fr.burstSeen >= fr.burstCount {
		return fr.endBurst(fmt.Sprintf("more than %d inner frames", fr.burstCount))
	}
	if fr.burstBytes < frameHeaderLen {
		return fr.endBurst("truncated inner frame header")
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return frameHeader{}, nil, false, err
	}
	fr.burstBytes -= frameHeaderLen
	h, err := parseFrameHeader(fr.hdr[:], fr.size, fr.maxElems)
	if err != nil {
		return fr.endBurst(fmt.Sprintf("implausible inner header: %v", err))
	}
	if h.kind == ctlBurst {
		return fr.endBurst("nested burst envelope")
	}
	pb := h.n * h.codec.bytesPerElem()
	if pb > fr.burstBytes {
		return fr.endBurst("truncated inner payload")
	}
	// One damaged payload costs one frame: its header was plausible, so
	// the next boundary is still known.
	fr.burstBytes -= pb
	fr.burstSeen++
	return fr.readPayload(h)
}

// endBurst abandons the open envelope after structural damage: the rest
// of its byte count is consumed so the outer stream stays frame-aligned,
// and the damage surfaces as one synced *CorruptionError.
func (fr *frameReader) endBurst(reason string) (frameHeader, []float32, bool, error) {
	rest := int64(fr.burstBytes)
	fr.burstBytes, fr.burstCount, fr.burstSeen = 0, 0, 0
	if _, err := io.CopyN(io.Discard, fr.r, rest); err != nil {
		return frameHeader{}, nil, false, err
	}
	return frameHeader{}, nil, true, &CorruptionError{Reason: "burst: " + reason}
}

// readPayload reads the payload of the frame whose validated header is h
// (and whose raw header is fr.hdr) from the socket directly into a pooled
// buffer's own memory, verifies the CRC over those bytes, and converts in
// place: f32 is already the buffer's contents; bf16 is read into the upper
// half and widened front to back.
func (fr *frameReader) readPayload(h frameHeader) (frameHeader, []float32, bool, error) {
	payload := GetBuf(h.n)
	body := tensor.F32Bytes(payload)
	if h.codec == CodecBF16 {
		body = body[2*h.n:]
	}
	if _, err := io.ReadFull(fr.r, body); err != nil {
		Release(payload)
		return frameHeader{}, nil, false, err
	}
	if got := frameCRC(fr.hdr[:], body); got != h.crc {
		// The length field was covered by the header checks and the payload
		// was fully consumed: the stream is still frame-aligned.
		Release(payload)
		return frameHeader{}, nil, true, &CorruptionError{Reason: fmt.Sprintf("payload CRC mismatch (got %#x want %#x)", got, h.crc)}
	}
	if h.codec == CodecBF16 {
		tensor.WidenBF16LE(payload)
	} else {
		tensor.F32FromLE(payload)
	}
	return h, payload, true, nil
}
