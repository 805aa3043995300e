package pipeline

import (
	"weipipe/internal/comm"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// WeiPipe integrity wiring (Options.Integrity). Three defenses compose into
// end-to-end silent-data-corruption coverage (DESIGN.md §15):
//
//   - belt chunks grow a CRC32 trailer sealed at the chunk's origin over the
//     canonical wire-value domain, relayed untouched and verified at every
//     consumption point (weight install, gradient accumulate, retire, buddy
//     replay);
//   - the resident fp32 master weights and AdamW moments carry cached
//     checksums, verified at each iteration entry and refreshed after every
//     legitimate mutation — a flip while the state rests between iterations
//     cannot silently enter the next step;
//   - matmul outputs are (optionally) verified by the tensor layer's ABFT
//     row checksums; the panic that raises is converted here into the same
//     typed error the other detectors produce.
//
// Every detection returns a *comm.IntegrityError, which RunResilient treats
// as lost rank state — the evidence → agreement → buddy-harvest/checkpoint
// repair path — so a detected flip is repaired or rejected, never trained on.

// initIntegrity resolves the trailer pad every belt buffer grows by and
// arms the owned piece's resident guard.
func (w *WeiPipe) initIntegrity() {
	if w.opts.Integrity {
		w.pad = comm.ChecksumTrailerLen
		w.master().sums = new([3]uint32)
		w.master().reseal()
	}
}

// beltBody strips the checksum trailer (identity with integrity off).
func (w *WeiPipe) beltBody(buf []float32) []float32 {
	if w.pad == 0 {
		return buf
	}
	return buf[:len(buf)-w.pad]
}

// sealBelt projects buf's body into the wire-value domain of the codec the
// transport sends tag under and seals the CRC trailer over it. Idempotent
// rounding makes the seal survive every downstream re-encode bit-exactly.
func (w *WeiPipe) sealBelt(tag Tag, buf []float32) {
	if w.pad == 0 {
		return
	}
	comm.RoundToWire(w.t.WireCodec(tag), buf[:len(buf)-w.pad])
	comm.SealChunk(buf)
}

// sealWire finishes a belt payload whose body's f32 checksum its producer
// folded into the write that made it (the transport checksums its f32
// image, so no rounding is due): it seals the trailer from that checksum,
// which is the trailer's own, and records the whole payload's for Forward
// (comm.Seal).
func (w *WeiPipe) sealWire(buf []float32, bodyCRC uint32) {
	crc := bodyCRC
	if w.pad > 0 {
		comm.SealChunkCRC(buf, bodyCRC)
		crc = tensor.UpdateCRC32(crc, tensor.F32LE(buf[len(buf)-w.pad:]))
	}
	comm.Seal(buf, crc)
}

// verifyBelt checks a sealed belt payload at a consumption point, recording
// the check in the transport meter and, on mismatch, emitting a trace
// instant and returning the typed integrity error.
func (w *WeiPipe) verifyBelt(site comm.IntegritySite, kind comm.Kind, chunk int, buf []float32) error {
	if w.pad == 0 {
		return nil
	}
	want, got, ok := comm.VerifyChunk(buf)
	w.stats.RecordIntegrityCheck(kind, ok)
	if ok {
		return nil
	}
	w.tr.Instant(trace.CodeIntegrity, int64(kind), int64(chunk))
	return &comm.IntegrityError{
		Rank: w.t.Rank(), Site: site, Kind: kind, Chunk: chunk, Want: want, Got: got,
	}
}

// checksums returns the checksums of the piece's w, m and v: what the
// resident guard of WeiPipe's owned piece caches.
func (p *piece) checksums() (s [3]uint32) {
	s[0] = comm.ChecksumSlice(p.w)
	p.opt.VisitState(func(m, v []float32) {
		s[1], s[2] = comm.ChecksumSlice(m), comm.ChecksumSlice(v)
	})
	return s
}

// reseal re-arms the piece's resident guard (if armed) over its values.
// Called after every legitimate mutation (construction, the optimizer step,
// a load) — and never between an injected fault and its check, which is
// what makes the guard sound.
func (p *piece) reseal() {
	if p.sums != nil {
		*p.sums = p.checksums()
	}
}

// checkResidentGuards verifies the owned piece against its cached checksums
// (iteration entry). Resident checks record under KindCtl: they never
// crossed a transport.
func (w *WeiPipe) checkResidentGuards() error {
	p := w.master()
	if p.sums == nil {
		return nil
	}
	got := p.checksums()
	for i, site := range [3]comm.IntegritySite{comm.SiteWeights, comm.SiteMoments, comm.SiteMoments} {
		ok := p.sums[i] == got[i]
		w.stats.RecordIntegrityCheck(comm.KindCtl, ok)
		if ok {
			continue
		}
		w.tr.Instant(trace.CodeIntegrity, int64(comm.KindCtl), int64(w.ownChunk))
		return &comm.IntegrityError{
			Rank: w.t.Rank(), Site: site, Kind: comm.KindCtl, Chunk: w.ownChunk, Want: p.sums[i], Got: got[i],
		}
	}
	return nil
}

// recoverIntegrity converts a tensor-layer ABFT panic into the typed
// integrity error the repair path consumes. It is deferred first in
// TrainIteration, so it runs last during an unwind — after the arena and
// stage-buffer cleanups have already released their resources. Any other
// panic is re-raised untouched.
func (w *WeiPipe) recoverIntegrity(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	ae, ok := r.(*tensor.ABFTError)
	if !ok {
		panic(r)
	}
	w.stats.RecordIntegrityCheck(comm.KindCtl, false)
	w.tr.Instant(trace.CodeIntegrity, int64(comm.KindCtl), int64(ae.Row))
	*errp = &comm.IntegrityError{
		Rank: w.t.Rank(), Site: comm.SiteKernel, Kind: comm.KindCtl, Chunk: -1, Cause: ae,
	}
}

// injectStateFlips fires any bit-flip chaos events scheduled against this
// rank's resident state for the current iteration. Placed immediately before
// checkResidentGuards, so a fired flip is always in the guard's view.
func (w *WeiPipe) injectStateFlips() {
	in := w.opts.BitFlip
	if in == nil {
		return
	}
	r := w.t.Rank()
	in.Flip(r, w.iter, FlipWeights, w.master().w)
	w.master().opt.VisitState(func(m, v []float32) {
		in.Flip(r, w.iter, FlipMomentM, m)
		in.Flip(r, w.iter, FlipMomentV, v)
	})
}
