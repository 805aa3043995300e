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

// initIntegrity resolves the per-rank integrity configuration: the trailer
// pad every belt buffer grows by, and the wire codec the seal must round
// through (asked of the transport when it can say, inferred from the options
// otherwise).
func (w *WeiPipe) initIntegrity() {
	if !w.opts.Integrity {
		return
	}
	w.pad = comm.ChecksumTrailerLen
	if cp, ok := w.t.(comm.CodecProvider); ok {
		w.wireCodec = cp.WireCodec
	} else if w.opts.BF16Wire {
		w.wireCodec = comm.BeltBF16
	}
}

// beltBody strips the checksum trailer (identity with integrity off).
func (w *WeiPipe) beltBody(buf []float32) []float32 {
	if w.pad == 0 {
		return buf
	}
	return buf[:len(buf)-w.pad]
}

// sealBelt projects buf's body into the wire-value domain of the codec tag
// travels under and seals the CRC trailer over it. Idempotent rounding makes
// the seal survive every downstream re-encode bit-exactly.
func (w *WeiPipe) sealBelt(tag Tag, buf []float32) {
	if w.pad == 0 {
		return
	}
	c := comm.CodecF32
	if w.wireCodec != nil {
		c = w.wireCodec(tag)
	}
	comm.RoundToWire(c, buf[:len(buf)-w.pad])
	comm.SealChunk(buf)
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

// refreshResidentGuards recomputes the cached checksums of the owned chunk's
// resident state. Called after every legitimate mutation (construction, the
// optimizer step, checkpoint restore) — and never between an injected fault
// and its check, which is what makes the guard sound.
func (w *WeiPipe) refreshResidentGuards() {
	if w.pad == 0 {
		return
	}
	w.guardW = comm.ChecksumSlice(w.masterW)
	w.opt.VisitState(func(m, v []float32) {
		w.guardM = comm.ChecksumSlice(m)
		w.guardV = comm.ChecksumSlice(v)
	})
	w.guardValid = true
}

// checkResidentGuards verifies the resident state against the cached
// checksums (iteration entry). Resident checks record under KindCtl: they
// never crossed a transport.
func (w *WeiPipe) checkResidentGuards() error {
	if w.pad == 0 || !w.guardValid {
		return nil
	}
	gotW := comm.ChecksumSlice(w.masterW)
	var gotM, gotV uint32
	w.opt.VisitState(func(m, v []float32) {
		gotM = comm.ChecksumSlice(m)
		gotV = comm.ChecksumSlice(v)
	})
	check := func(site comm.IntegritySite, want, got uint32) error {
		ok := want == got
		w.stats.RecordIntegrityCheck(comm.KindCtl, ok)
		if ok {
			return nil
		}
		w.tr.Instant(trace.CodeIntegrity, int64(comm.KindCtl), int64(w.ownChunk))
		return &comm.IntegrityError{
			Rank: w.t.Rank(), Site: site, Kind: comm.KindCtl, Chunk: w.ownChunk, Want: want, Got: got,
		}
	}
	if err := check(comm.SiteWeights, w.guardW, gotW); err != nil {
		return err
	}
	if err := check(comm.SiteMoments, w.guardM, gotM); err != nil {
		return err
	}
	return check(comm.SiteMoments, w.guardV, gotV)
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
	in.Flip(r, w.iter, FlipWeights, w.masterW)
	w.opt.VisitState(func(m, v []float32) {
		in.Flip(r, w.iter, FlipMomentM, m)
		in.Flip(r, w.iter, FlipMomentV, v)
	})
}
