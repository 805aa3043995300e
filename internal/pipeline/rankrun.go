package pipeline

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/trace"
)

// RunRank is the one training loop. Every rank runs it: each process of a
// weipipe-launch fleet, and each of RunResilient's goroutines. Per iteration
// it sets the learning rate, trains, and agrees the loss with an all-to-all
// control barrier, so no rank runs ahead into an iteration its peers have
// abandoned. Checkpoints and the final weights are gathers of what every
// trainer exports (share), so every rank assembles the identical snapshot;
// rank 0 writes checkpoints to disk. On failure the rank climbs the repair
// ladder (elastic.go). RunRank never decides the cluster's future: it
// returns a RankOutcome, and the supervisor — internal/launch across
// processes, RunResilient in one — plans the next incarnation with
// PlanRepair and hands every rank a fresh RankAssignment at a new epoch.

// RankAssignment is one process's place in one cluster incarnation.
type RankAssignment struct {
	// Epoch is the incarnation number, fencing this mesh's frames and
	// handshakes from every earlier (possibly still-twitching) cluster.
	Epoch uint32
	// Rank and World position this process in the incarnation.
	Rank, World int
	// StartIter is the completed-iteration count training resumes from
	// when no full-state snapshot says otherwise.
	StartIter int
	// SeedFrom, when >= 0, names the rank that broadcasts its snapshot to
	// the ranks in SeedTo before training starts — how freshly admitted
	// spares receive the harvested state over the *new* mesh (they never
	// heard the old one).
	SeedFrom int
	// SeedTo lists the ranks waiting for the snapshot broadcast.
	SeedTo []int
}

// RankOutcome reports how one incarnation ended for this rank.
type RankOutcome struct {
	// Done is true when all Iters iterations completed.
	Done bool
	// Iter is the completed-iteration count at exit (the repair cut after
	// a failure).
	Iter int
	// Weights and WeightsHash hold the assembled full parameter vector
	// (Done only) and its FNV-64a fingerprint for cheap cross-process
	// bit-identity checks.
	Weights     []float32
	WeightsHash uint64
	// Losses holds the per-iteration losses this incarnation observed
	// (indexed from 0; entries before StartIter are zero).
	Losses []float64
	// Checkpoint is the last coordinated checkpoint this rank assembled,
	// else the snapshot it was seeded from (nil when there is neither):
	// the restart point of an in-process supervisor.
	Checkpoint *checkpoint.Snapshot
	// SkippedSteps, SpikeSteps and ArenaHighWater report the trainer's
	// counters (Done only): SkippedSteps, SpikeSteps and ArenaMeter.
	SkippedSteps, SpikeSteps, ArenaHighWater int
	// Err is the failure that ended the incarnation, naming the rank and
	// iteration (nil when Done).
	Err error
	// Membership is the agreed post-failure membership (failure only).
	Membership comm.Membership
	// Snapshot is the harvested repair state (failure with successful
	// harvest only) — the seed for the next incarnation.
	Snapshot *checkpoint.Snapshot
	// Aborted is true when this rank cannot contribute to a repair:
	// evicted, quorum lost, the harvest failed, or repair is off. The
	// supervisor falls back to checkpoint restart (or retires the rank to
	// standby).
	Aborted bool
	// Reason explains the abort ("evicted", "no-quorum", ...).
	Reason string
}

// Reserved KindCtl tag namespaces for the cross-process protocols; the
// training strategies use KindWeight/KindGrad/KindAct/KindBuddy/KindColl,
// and comm's agreement owns A >= 1<<30, so these cannot collide.
const (
	barrierTagBase = 1 << 29       // + iter: the per-iteration loss barrier
	seedTagBase    = 1<<29 + 1<<26 // snapshot broadcast to spares
	gatherTag      = 1<<29 + 1<<27 // B = completed: checkpoint and final-weight shares
	harvestTagMeta = 1<<29 + 1<<28 // harvest meta (dead hash, step phases)
	harvestTag     = 1<<29 + 3<<27 // B = cut: harvested chunk state
)

// batches is the run's data source: the Batches override, else the spec's.
func (h RunHooks) batches(spec RunSpec) func(int) []data.Batch {
	if h.Batches != nil {
		return h.Batches
	}
	return spec.Batches()
}

// CloseMesh closes a rank's TCP endpoint at the end of an incarnation.
// Close models an abrupt kill and abandons queued frames, so every exit —
// completion, agreement verdict, harvest — first drains the send queues
// toward live peers; otherwise the tail of an exchange protocol disappears
// from under a slower rank and a healthy run reports a phantom death.
func CloseMesh(t comm.Transport, dl comm.Deadlines) {
	comm.FlushTransport(t, dl.WithDefaults().Barrier)
	t.Close()
}

// RunRank drives this rank through one cluster incarnation over t, its
// endpoint of the incarnation's mesh, which must honour a.Epoch. The
// endpoint stays the caller's to close: on the in-process fabric any close
// is a death, so a fleet's endpoints close once every rank is home. The
// repair ladder is on whenever spec.Elastic is; off, a failure aborts at
// once and the supervisor closes every endpoint.
func RunRank(a RankAssignment, t comm.Transport, spec RunSpec, hooks RunHooks) (*RankOutcome, error) {
	if a.World < 1 || a.Rank < 0 || a.Rank >= a.World || t.Size() != a.World {
		return nil, fmt.Errorf("pipeline: invalid assignment rank %d world %d on a %d-rank mesh", a.Rank, a.World, t.Size())
	}
	repair := spec.Elastic != ElasticNone
	var board *ProgressBoard // the straggler watchdog's, when one runs
	if bt, ok := t.(*beaconTransport); ok {
		board = bt.board
	}

	opts := spec.Options
	// The repair ladder needs every shard replicated.
	opts.buddy = repair && a.World >= 2
	tr, err := New(spec.Strategy, t, spec.Model, opts)
	if err != nil {
		return nil, err
	}
	if ps, ok := tr.(progressSink); ok && board != nil {
		ps.SetProgressBoard(board, a.Rank)
	}
	rt := spec.Options.Trace.Rank(a.Rank)

	snap := hooks.Snapshot
	var ckpt *checkpoint.Snapshot // the last checkpoint this incarnation assembled
	fail := func(iter int, cause error) *RankOutcome {
		board.Fail()
		cause = fmt.Errorf("rank %d, iteration %d: %w", a.Rank, iter, cause)
		var o *RankOutcome
		if repair {
			o = failureOutcome(a, spec, t, tr, iter, cause)
		} else {
			o = &RankOutcome{Iter: iter, Aborted: true, Reason: "aborted: " + cause.Error()}
		}
		o.Err, o.Checkpoint = cause, cmp.Or(ckpt, snap)
		return o
	}

	if snap, err = seedExchange(a, spec, t, snap); err != nil {
		return fail(0, err), nil
	}
	start := a.StartIter
	if snap != nil {
		if err := RestoreSnapshot(snap, []Trainer{tr}); err != nil {
			return nil, err
		}
		if fullState(snap) {
			start = int(snap.Step)
		}
		if a.Epoch > 0 {
			// Mark the recovery restore on the timeline: the incarnation
			// and the iteration training resumes from.
			rt.Instant(trace.CodeRepair, int64(a.Epoch), int64(start))
		}
	}

	dl := spec.Deadlines.WithDefaults()
	batches := hooks.batches(spec)
	losses := make([]float64, spec.Iters)
	for iter := start; iter < spec.Iters; iter++ {
		if spec.Warmup > 0 {
			tr.SetLR(spec.LR(iter))
		}
		board.SetIdle(a.Rank, false)
		span := rt.Begin()
		loss, err := tr.TrainIteration(batches(iter))
		rt.End(span, trace.CodeStep, int64(iter), 0)
		board.SetIdle(a.Rank, true)
		if err == nil {
			loss, err = lossBarrier(a, t, dl, iter, loss)
		}
		if err != nil {
			return fail(iter, err), nil
		}
		losses[iter] = loss
		if hooks.OnIteration != nil {
			hooks.OnIteration(iter, loss)
		}
		if spec.CheckpointEvery > 0 && ((iter+1)%spec.CheckpointEvery == 0 || iter+1 == spec.Iters) {
			ns := newCapture(tr.Model(), iter+1, true)
			own := export(tr, ns)
			span := rt.Begin()
			err := gatherCapture(a, dl, t, tr, ns, own)
			rt.End(span, trace.CodeCkpt, int64(iter+1), 0)
			if err != nil {
				return fail(iter, err), nil
			}
			if err := spec.save(a, ns); err != nil {
				return nil, err
			}
			ckpt = ns
		}
	}

	// The final weights: the last checkpoint's when it was taken at the
	// end, else a weight-only gather — which every strategy can export.
	var weights []float32
	if ckpt != nil && int(ckpt.Step) == spec.Iters {
		weights = slices.Clone(ckpt.Weights)
	} else {
		final := newCapture(tr.Model(), spec.Iters, false)
		if err := gatherCapture(a, dl, t, tr, final, export(tr, final)); err != nil {
			return fail(spec.Iters-1, err), nil
		}
		weights = final.Weights
	}
	out := &RankOutcome{
		Done:         true,
		Iter:         spec.Iters,
		Weights:      weights,
		WeightsHash:  HashWeights(weights),
		Losses:       losses,
		Checkpoint:   cmp.Or(ckpt, snap),
		SkippedSteps: tr.SkippedSteps(),
		SpikeSteps:   tr.SpikeSteps(),
	}
	if am, ok := tr.(ArenaMeter); ok {
		out.ArenaHighWater = am.ArenaHighWater()
	}
	return out, nil
}

// gatherCapture completes a capture on every rank: this rank's share,
// already exported into snap, goes to every peer, and every peer's share is
// placed on receipt, so all ranks assemble the identical snapshot.
func gatherCapture(a RankAssignment, dl comm.Deadlines, t comm.Transport, tr Trainer,
	snap *checkpoint.Snapshot, own share) error {

	everyone := comm.Membership{OldSize: a.World}.Survivors()
	shares, err := exchangeShares(a, t, dl,
		Tag{Kind: comm.KindCtl, A: gatherTag, B: int(snap.Step)}, everyone, snap, own)
	if err != nil {
		return err
	}
	return sealCapture(snap, shares, tr)
}

// exchangeShares sends own, already placed in snap, to every other rank of
// group and places each of theirs on receipt, returning every share. own is
// packed once, and every peer is handed a reference to that one buffer.
func exchangeShares(a RankAssignment, t comm.Transport, dl comm.Deadlines, tag Tag,
	group []int, snap *checkpoint.Snapshot, own share) ([]share, error) {

	peers := slices.DeleteFunc(slices.Clone(group), func(r int) bool { return r == a.Rank })
	if len(peers) > 0 {
		payload := packShare(snap, own)
		for range peers[1:] {
			comm.Retain(payload)
		}
		for i, r := range peers {
			if err := t.SendOwned(r, tag, payload); err != nil {
				for range peers[i+1:] {
					comm.Release(payload) // the references never sent
				}
				return nil, err
			}
		}
	}
	shares := []share{own}
	for _, r := range peers {
		got, err := t.RecvTimeout(r, tag, dl.Barrier)
		if err != nil {
			return nil, err
		}
		sh, err := placeShare(snap, got)
		comm.Release(got)
		if err != nil {
			return nil, fmt.Errorf("pipeline: rank %d's share: %w", r, err)
		}
		shares = append(shares, sh)
	}
	return shares, nil
}

// save writes a coordinated checkpoint to CheckpointPath when
// checkpointing is on; rank 0 is the one writer.
func (s RunSpec) save(a RankAssignment, snap *checkpoint.Snapshot) error {
	if s.CheckpointEvery == 0 || s.CheckpointPath == "" || a.Rank != 0 {
		return nil
	}
	return checkpoint.SaveRotate(s.CheckpointPath, snap, s.CheckpointKeep)
}

// HashWeights fingerprints a flat parameter vector (FNV-64a over the
// little-endian f32 bit patterns) for cheap bit-identity comparison — the
// drivers and the replay oracle compare these instead of full vectors.
func HashWeights(w []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range w {
		bits := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// seedExchange runs the pre-training snapshot broadcast: the SeedFrom
// rank marshals its snapshot to every SeedTo rank over the new mesh.
// Spares (ranks listed in SeedTo) block until it arrives.
func seedExchange(a RankAssignment, spec RunSpec, t comm.Transport, snap *checkpoint.Snapshot) (*checkpoint.Snapshot, error) {
	if a.SeedFrom < 0 || len(a.SeedTo) == 0 {
		return snap, nil
	}
	tag := Tag{Kind: comm.KindCtl, A: seedTagBase, B: int(a.Epoch)}
	if a.Rank == a.SeedFrom {
		if snap == nil {
			return nil, fmt.Errorf("pipeline: rank %d must seed %v but holds no snapshot", a.Rank, a.SeedTo)
		}
		raw, err := checkpoint.Marshal(snap)
		if err != nil {
			return nil, err
		}
		payload := comm.PackBytes(raw)
		for _, dst := range a.SeedTo {
			if dst == a.Rank {
				continue
			}
			if err := t.Send(dst, tag, payload); err != nil {
				return nil, err
			}
		}
		return snap, nil
	}
	for _, dst := range a.SeedTo {
		if dst != a.Rank {
			continue
		}
		payload, err := t.RecvTimeout(a.SeedFrom, tag, spec.Deadlines.WithDefaults().Barrier)
		if err != nil {
			return nil, err
		}
		raw, err := comm.UnpackBytes(payload)
		comm.Release(payload)
		if err != nil {
			return nil, err
		}
		return checkpoint.Unmarshal(raw)
	}
	return snap, nil
}

// lossBarrier is the per-iteration all-to-all control barrier: every rank
// broadcasts its loss, waits for every peer's, and adopts rank 0's as the
// canonical value. A rank that cannot complete the barrier knows the
// iteration did not commit cluster-wide. The receive deadline is the
// Barrier budget, which exceeds PeerDead by construction, so a dead peer
// surfaces as typed evidence — never as an anonymous timeout racing it.
func lossBarrier(a RankAssignment, t comm.Transport, dl comm.Deadlines, iter int, loss float64) (float64, error) {
	tag := Tag{Kind: comm.KindCtl, A: barrierTagBase + iter}
	// The f64 loss rides as two f32 bit-alias words: a float32 cast would
	// round it, and the canonical loss must survive the wire bit-exactly.
	bits := math.Float64bits(loss)
	payload := []float32{
		math.Float32frombits(uint32(bits)),
		math.Float32frombits(uint32(bits >> 32)),
	}
	for r := 0; r < a.World; r++ {
		if r == a.Rank {
			continue
		}
		if err := t.Send(r, tag, payload); err != nil {
			return 0, fmt.Errorf("iteration %d barrier: %w", iter, err)
		}
	}
	canonical := loss
	for r := 0; r < a.World; r++ {
		if r == a.Rank {
			continue
		}
		got, err := t.RecvTimeout(r, tag, dl.Barrier)
		if err != nil {
			return 0, fmt.Errorf("iteration %d barrier: %w", iter, err)
		}
		if len(got) != 2 {
			comm.Release(got)
			return 0, fmt.Errorf("iteration %d barrier: malformed loss frame from rank %d", iter, r)
		}
		if r == 0 {
			canonical = math.Float64frombits(
				uint64(math.Float32bits(got[0])) | uint64(math.Float32bits(got[1]))<<32)
		}
		comm.Release(got)
	}
	if a.Rank == 0 {
		canonical = loss
	}
	return canonical, nil
}

// failureOutcome is the per-rank failure rule of the repair ladder
// (elastic.go), which RunRank climbs whenever repair is on:
//
//   - ErrClosed: the driver shut this rank down; nothing to agree about.
//   - ErrCrashed or ErrIntegrity: this rank's own state is suspect. It
//     closes its endpoint — every fabric then reports it dead to the
//     survivors — and aborts as dead, so they rebuild its shard from the
//     buddy replica instead of trusting it.
//   - Anything else (an error naming a dead peer, a failed barrier): reopen
//     the transport, agree on the membership over it, and harvest the
//     snapshot every survivor then holds identically.
//
// Any step that cannot complete safely aborts — the driver then falls back
// to a checkpoint restart, which is slower but equally bit-exact.
func failureOutcome(a RankAssignment, spec RunSpec, t comm.Transport, tr Trainer,
	iter int, cause error) *RankOutcome {

	abort := func(reason string) *RankOutcome {
		return &RankOutcome{Iter: iter, Aborted: true, Reason: reason}
	}
	switch {
	case errors.Is(cause, comm.ErrClosed):
		return abort("closed: " + cause.Error())
	case errors.Is(cause, comm.ErrCrashed), errors.Is(cause, comm.ErrIntegrity):
		t.Close()
		return abort("dead: " + cause.Error())
	}
	dl := spec.Deadlines.WithDefaults()
	evidence := t.BeginRecovery()
	if r, ok := comm.DeadPeer(cause); ok {
		evidence = append(evidence, r)
	}
	m, err := comm.AgreeOverTransport(t, evidence, comm.AgreeConfig{Epoch: a.Epoch, Deadlines: dl})
	switch {
	case errors.Is(err, comm.ErrEvicted):
		return abort("evicted")
	case errors.Is(err, comm.ErrNoQuorum):
		return abort("no-quorum")
	case err != nil:
		return abort("agreement: " + err.Error())
	}

	snap, err := wireHarvest(a, t, dl, tr, m)
	if err != nil {
		return &RankOutcome{
			Iter: iter, Membership: m, Aborted: true,
			Reason: "harvest: " + err.Error(),
		}
	}
	return &RankOutcome{Iter: int(snap.Step), Membership: m, Snapshot: snap}
}

// wireHarvest rebuilds the full trainer state on every survivor of an
// agreed membership: each survivor sends the others one share of every
// chunk it is the chunkSource for (its owned live state, or the buddy
// shadow of a dead owner) at the cut. A first phase fixes the cut: the
// survivors exchange a hash of the agreed dead set (divergent views abort
// rather than assemble a franken-snapshot) and their committed step phases,
// whose minimum is the cut. The tag carries the cut, so two harvests on one
// transport never match each other's frames.
func wireHarvest(a RankAssignment, t comm.Transport, dl comm.Deadlines,
	tr Trainer, m comm.Membership) (*checkpoint.Snapshot, error) {

	wp, ok := tr.(*WeiPipe)
	if !ok {
		return nil, fmt.Errorf("pipeline: the repair ladder needs WeiPipe trainers, got %T", tr)
	}
	survivors := m.Survivors()
	cut, err := agreeCut(a, t, dl, wp, m, survivors)
	if err != nil {
		return nil, err
	}

	snap := newCapture(wp.Model(), cut, true)
	var own share
	for c := 0; c < a.World; c++ {
		src, fromBuddy, err := chunkSource(c, m)
		if err != nil {
			return nil, err
		}
		if src != a.Rank {
			continue
		}
		p, iters := wp.master(), wp.ownerIters
		if fromBuddy {
			if p, iters = wp.shadow, wp.shadowIters; p == nil {
				return nil, fmt.Errorf("pipeline: buddy replication disabled on rank %d", a.Rank)
			}
		}
		if p, err = p.at(cut, iters); err != nil {
			return nil, fmt.Errorf("pipeline: harvest chunk %d: %w", c, err)
		}
		held := len(own.spans) > 0
		step := own.put(snap, p)
		if held && step != own.step {
			return nil, fmt.Errorf("pipeline: inconsistent optimizer steps across chunks: %d vs %d", own.step, step)
		}
		own.step = step
	}
	shares, err := exchangeShares(a, t, dl, Tag{Kind: comm.KindCtl, A: harvestTag, B: cut}, survivors, snap, own)
	if err != nil {
		return nil, err
	}
	if err := sealCapture(snap, shares, wp); err != nil {
		return nil, err
	}
	return snap, nil
}

// agreeCut is a failure harvest's first phase: every survivor sends the
// others a hash of its agreed dead set and its committed step phases, and
// the cut is the minimum of the phases.
func agreeCut(a RankAssignment, t comm.Transport, dl comm.Deadlines, wp *WeiPipe,
	m comm.Membership, survivors []int) (int, error) {

	deadHash := hashDeadSet(a.Epoch, m)
	metaTag := Tag{Kind: comm.KindCtl, A: harvestTagMeta, B: int(a.Epoch)}
	meta := []float32{
		math.Float32frombits(uint32(deadHash)),
		float32(wp.CompletedStepPhases()),
	}
	for _, r := range survivors {
		if r == a.Rank {
			continue
		}
		if err := t.Send(r, metaTag, meta); err != nil {
			return 0, err
		}
	}
	cut := wp.CompletedStepPhases()
	for _, r := range survivors {
		if r == a.Rank {
			continue
		}
		got, err := t.RecvTimeout(r, metaTag, dl.Barrier)
		if err != nil {
			return 0, err
		}
		if len(got) != len(meta) {
			comm.Release(got)
			return 0, fmt.Errorf("pipeline: malformed harvest meta from rank %d", r)
		}
		if math.Float32bits(got[0]) != uint32(deadHash) {
			comm.Release(got)
			return 0, fmt.Errorf("pipeline: rank %d agreed a different dead set", r)
		}
		if c := int(got[1]); c < cut {
			cut = c
		}
		comm.Release(got)
	}
	return cut, nil
}

// hashDeadSet fingerprints (epoch, oldSize, dead...) so survivors can
// verify they agreed on the same membership before mixing chunk states.
func hashDeadSet(epoch uint32, m comm.Membership) uint32 {
	h := fnv.New32a()
	var b [4]byte
	put := func(v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	put(epoch)
	put(uint32(m.OldSize))
	for _, d := range m.Dead {
		put(uint32(d))
	}
	return h.Sum32()
}
