package comm

import (
	"fmt"

	"weipipe/internal/tensor"
)

// End-to-end chunk integrity. The TCP frame CRC (PR 2) protects a payload
// while it is *on the wire*; nothing protects it while it sits in a relay
// rank's staging buffer, survives a lossy re-encode, or waits in a mailbox.
// This file adds a checksum that travels *with* the data: the chunk's
// origin seals a CRC32 trailer over the payload, every relay hop forwards
// it untouched, and the consumer verifies it just before use — so a bit
// flipped anywhere along the multi-hop belt path is detected at the point
// of consumption, no matter which hop's memory it happened in.
//
// The trailer must itself survive the belt's lossy bf16 wire codec. It
// therefore carries the CRC as four float32 elements, each holding one
// checksum byte as an exact small integer: every integer in [0, 255] is
// exactly representable in bf16 (8 significant bits), so round-to-nearest-
// even re-encoding is the identity on trailer elements. The checksum is
// computed over the payload's *canonical wire-value domain* — the origin
// first projects the payload through the link codec (RoundToWire), which is
// idempotent, so the values the consumer receives after any number of lossy
// re-encodes are bit-identical to the values the CRC covered.

// ChecksumTrailerLen is the number of float32 elements a sealed chunk
// carries after its payload: four, one per CRC32 byte.
const ChecksumTrailerLen = 4

// ChecksumSlice returns the CRC32 (IEEE) over the little-endian bit
// patterns of payload — the checksum of the bytes the wire and the
// checkpoint file carry for it, equal to crc32.ChecksumIEEE of them. The
// payload's own memory is those bytes (tensor.F32LE), so this is the wire's
// CRC, tensor.UpdateCRC32, over a view: no staging buffer, no allocation.
func ChecksumSlice(payload []float32) uint32 {
	return tensor.UpdateCRC32(0, tensor.F32LE(payload))
}

// RoundToWire projects payload into the codec's value domain in place —
// the canonical form a receiver observes after a wire round-trip. Origins
// seal checksums over this domain so lossy re-encoding verifies cleanly.
func RoundToWire(c WireCodec, payload []float32) { applyCodec(c, payload) }

// SealChunk writes the checksum trailer into the last ChecksumTrailerLen
// elements of buf, covering everything before them. The caller must have
// already projected the body into the wire-value domain (RoundToWire);
// SealChunk itself is codec-agnostic.
func SealChunk(buf []float32) {
	SealChunkCRC(buf, ChecksumSlice(buf[:len(buf)-ChecksumTrailerLen]))
}

// SealChunkCRC is SealChunk for a caller that already holds crc, the
// checksum (ChecksumSlice) of everything before the trailer.
func SealChunkCRC(buf []float32, crc uint32) {
	t := buf[len(buf)-ChecksumTrailerLen:]
	t[0] = float32(crc & 0xff)
	t[1] = float32((crc >> 8) & 0xff)
	t[2] = float32((crc >> 16) & 0xff)
	t[3] = float32((crc >> 24) & 0xff)
}

// trailerCRC reassembles the CRC carried by a sealed chunk's trailer.
// ok=false means the trailer elements are not byte-valued — itself a
// corruption (or a buffer that was never sealed).
func trailerCRC(buf []float32) (crc uint32, ok bool) {
	t := buf[len(buf)-ChecksumTrailerLen:]
	for i := 3; i >= 0; i-- {
		v := t[i]
		b := uint32(v)
		if float32(b) != v || b > 0xff {
			return 0, false
		}
		crc = crc<<8 | b
	}
	return crc, true
}

// VerifyChunk checks a sealed chunk. It returns the carried and recomputed
// checksums and whether they agree; callers wrap a mismatch into an
// IntegrityError with their site context.
func VerifyChunk(buf []float32) (want, got uint32, ok bool) {
	if len(buf) < ChecksumTrailerLen {
		return 0, 0, false
	}
	want, tok := trailerCRC(buf)
	got = ChecksumSlice(buf[:len(buf)-ChecksumTrailerLen])
	return want, got, tok && want == got
}

// ChunkBody returns the payload of a sealed chunk, without the trailer.
func ChunkBody(buf []float32) []float32 { return buf[:len(buf)-ChecksumTrailerLen] }

// IntegritySite names where an integrity check ran, for error reports and
// telemetry.
type IntegritySite string

// The detection points of the integrity layer (DESIGN.md §15).
const (
	// SiteBelt: a weight- or gradient-belt chunk verified at consumption.
	SiteBelt IntegritySite = "belt"
	// SiteRetire: the fully-accumulated gradient verified at its owner.
	SiteRetire IntegritySite = "retire"
	// SiteBuddy: a buddy-replication copy verified before shadow replay.
	SiteBuddy IntegritySite = "buddy"
	// SiteWeights: the resident fp32 master weights guard.
	SiteWeights IntegritySite = "resident-weights"
	// SiteMoments: the resident optimizer-moment guard.
	SiteMoments IntegritySite = "resident-moments"
	// SiteKernel: an ABFT matmul check (tensor layer).
	SiteKernel IntegritySite = "kernel"
	// SiteCheckpoint: a per-tensor checkpoint digest (checkpoint layer).
	SiteCheckpoint IntegritySite = "checkpoint"
)

// IntegrityError reports detected silent data corruption: a sealed chunk,
// resident buffer or kernel result whose checksum no longer matches. It
// matches ErrIntegrity, and RunResilient treats the detecting rank's state
// as lost — the same evidence → agreement → buddy-harvest/checkpoint
// repair path a crash takes — rather than training on the corrupt values.
type IntegrityError struct {
	// Rank is the rank that detected the mismatch.
	Rank int
	// Site is the detection point.
	Site IntegritySite
	// Kind is the message kind for belt-side checks (KindCtl for resident
	// and kernel checks, which never crossed a transport).
	Kind Kind
	// Chunk is the belt chunk (or owned-chunk) index, -1 when not chunked.
	Chunk int
	// Want is the checksum carried by the trailer (or cached by the
	// resident guard); Got is the one recomputed over the data.
	Want, Got uint32
	// Cause carries a lower-layer error (an ABFT report), may be nil.
	Cause error
}

func (e *IntegrityError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("comm: integrity failure at rank %d site %s: %v", e.Rank, e.Site, e.Cause)
	}
	return fmt.Sprintf("comm: integrity failure at rank %d site %s kind %d chunk %d: checksum %08x, want %08x",
		e.Rank, e.Site, e.Kind, e.Chunk, e.Got, e.Want)
}

// Is implements errors.Is matching against ErrIntegrity.
func (e *IntegrityError) Is(target error) bool { return target == ErrIntegrity }

// Unwrap exposes the underlying cause (an ABFT report), when any.
func (e *IntegrityError) Unwrap() error { return e.Cause }
