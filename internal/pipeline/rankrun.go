package pipeline

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
)

// RunRank drives one rank of one cluster incarnation over a real TCP mesh:
// one OS process per rank, no shared memory to lean on. It climbs the same
// repair ladder as RunResilient (elastic.go) — failureOutcome is the
// per-rank failure rule of both drivers — and adds what a process needs
// in place of shared memory, as explicit wire protocols:
//
//   - a per-iteration all-to-all control barrier carrying the loss, so no
//     rank can run ahead into an iteration its peers have abandoned;
//   - coordinated checkpoints, each a wireHarvest with nobody dead: every
//     rank broadcasts its owned chunk and all ranks assemble the
//     identical snapshot; rank 0 writes it to disk, after the final
//     iteration too.
//
// RunRank never decides the cluster's future: it returns a RankOutcome
// describing what happened (completed; repaired with a harvested
// snapshot; aborted) and the supervisor (internal/launch) plans the next
// incarnation with PlanRepair and hands every process a fresh
// RankAssignment at a new epoch.

// RankAssignment is one process's place in one cluster incarnation.
type RankAssignment struct {
	// Epoch is the incarnation number, fencing this mesh's frames and
	// handshakes from every earlier (possibly still-twitching) cluster.
	Epoch uint32
	// Rank and World position this process in the incarnation.
	Rank, World int
	// Addrs lists every rank's listen address (len == World).
	Addrs []string
	// StartIter is the completed-iteration count training resumes from
	// when no snapshot says otherwise.
	StartIter int
	// SeedFrom, when >= 0, names the rank that broadcasts its snapshot to
	// the ranks in SeedTo before training starts — how freshly admitted
	// spares receive the harvested state over the *new* mesh (they never
	// heard the old one).
	SeedFrom int
	// SeedTo lists the ranks waiting for the snapshot broadcast.
	SeedTo []int
}

// RankConfig is the per-process training configuration (identical on
// every rank of an incarnation, except Snapshot which only survivors and
// the seeding rank hold).
type RankConfig struct {
	Strategy  Strategy
	Cfg       model.Config
	Opts      Options
	Iters     int
	BatchesFn func(iter int) []data.Batch
	// Deadlines is the single timeout budget threaded through transport,
	// detector and protocol layers.
	Deadlines comm.Deadlines
	// Chaos, when set, injects frame-level faults under the reliability
	// layer (the soak harness's knob).
	Chaos *comm.ChaosConfig
	// CheckpointEvery/CheckpointPath/CheckpointKeep mirror
	// ResilientOptions: a checkpoint every CheckpointEvery iterations and
	// after the final one; only rank 0 writes to disk.
	CheckpointEvery int
	CheckpointPath  string
	CheckpointKeep  int
	// Snapshot seeds this rank's trainer (survivors carry their harvested
	// state here between incarnations; nil on spares, which receive it via
	// the SeedFrom broadcast).
	Snapshot *checkpoint.Snapshot
	// LR, when set, is applied before every iteration.
	LR func(iter int) float64
	// OnIteration is called at each completed iteration barrier.
	OnIteration func(iter int, loss float64)
	// Beacon, when set, is called around long off-wire barriers ("ckpt",
	// "agree", "harvest", "seed") and each iteration ("iter"), so an
	// external stall monitor can exempt barrier-parked processes instead
	// of declaring them dead. The empty state ends the preceding one.
	Beacon func(state string, iter int)
	// Transport, when set, replaces the default TCP dial — the hook tests
	// use to interpose fault injection. It must honour a.Epoch.
	Transport func(a RankAssignment) (comm.Transport, error)
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
	// Membership is the agreed post-failure membership (failure only).
	Membership comm.Membership
	// Snapshot is the harvested repair state (failure with successful
	// harvest only) — the seed for the next incarnation.
	Snapshot *checkpoint.Snapshot
	// Aborted is true when this rank cannot contribute to a repair:
	// evicted, quorum lost, or the harvest failed. The supervisor falls
	// back to checkpoint restart (or retires the rank to standby).
	Aborted bool
	// Reason explains the abort ("evicted", "no-quorum", ...).
	Reason string
}

// Reserved KindCtl tag namespaces for the cross-process protocols; the
// training strategies use KindWeight/KindGrad/KindAct/KindBuddy/KindColl,
// and comm's agreement owns A >= 1<<30, so these cannot collide.
const (
	barrierTagBase = 1 << 29       // + iter: the per-iteration loss barrier
	harvestTagMeta = 1<<29 + 1<<28 // harvest meta (dead hash, step phases)
	harvestTagBase = 1<<29 + 3<<27 // + chunk, B = cut: harvested chunk state
	seedTagBase    = 1<<29 + 1<<26 // snapshot broadcast to spares
)

func (rc RankConfig) beacon(state string, iter int) {
	if rc.Beacon != nil {
		rc.Beacon(state, iter)
	}
}

// RunRank drives this process's rank through one cluster incarnation.
func RunRank(a RankAssignment, rc RankConfig) (*RankOutcome, error) {
	if a.World < 1 || a.Rank < 0 || a.Rank >= a.World || len(a.Addrs) != a.World {
		return nil, fmt.Errorf("pipeline: invalid assignment rank %d world %d addrs %d",
			a.Rank, a.World, len(a.Addrs))
	}
	dl := rc.Deadlines.WithDefaults()

	var t comm.Transport
	var err error
	if rc.Transport != nil {
		t, err = rc.Transport(a)
	} else {
		opts := dl.TCPOptions()
		opts.Epoch = a.Epoch
		opts.Chaos = rc.Chaos
		t, err = comm.DialTCPOpts(a.Rank, a.Addrs, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: rank %d epoch %d bring-up: %w", a.Rank, a.Epoch, err)
	}
	// Close models an abrupt kill and abandons queued frames, so every
	// exit — completion, agreement verdict, harvest — first drains the send
	// queues toward live peers; otherwise the tail of an exchange protocol
	// disappears from under a slower rank and a healthy run reports a
	// phantom death.
	defer func() {
		comm.FlushTransport(t, dl.Barrier)
		t.Close()
	}()

	opts := rc.Opts
	// The repair ladder needs every shard replicated.
	opts.buddy = a.World >= 2
	tr, err := New(rc.Strategy, t, rc.Cfg, opts)
	if err != nil {
		return nil, err
	}

	snap := rc.Snapshot
	if snap, err = seedExchange(a, rc, t, snap); err != nil {
		return failureOutcome(a, rc, t, tr, 0, err), nil
	}
	start := a.StartIter
	if snap != nil {
		if err := RestoreSnapshot(snap, []Trainer{tr}); err != nil {
			return nil, err
		}
		start = int(snap.Step)
	}

	losses := make([]float64, rc.Iters)
	for iter := start; iter < rc.Iters; iter++ {
		if rc.LR != nil {
			if ls, ok := tr.(LRSetter); ok {
				ls.SetLR(rc.LR(iter))
			}
		}
		rc.beacon("iter", iter)
		loss, err := tr.TrainIteration(rc.BatchesFn(iter))
		if err != nil {
			return failureOutcome(a, rc, t, tr, iter, err), nil
		}
		if loss, err = lossBarrier(a, t, dl, iter, loss); err != nil {
			return failureOutcome(a, rc, t, tr, iter, err), nil
		}
		losses[iter] = loss
		if rc.OnIteration != nil {
			rc.OnIteration(iter, loss)
		}
		if rc.CheckpointEvery > 0 && (iter+1)%rc.CheckpointEvery == 0 && iter+1 < rc.Iters {
			ns, err := rankCheckpoint(a, rc, t, tr, iter+1)
			if err != nil {
				return failureOutcome(a, rc, t, tr, iter, err), nil
			}
			if err := rc.save(a, ns); err != nil {
				return nil, err
			}
		}
	}

	final, err := rankCheckpoint(a, rc, t, tr, rc.Iters)
	if err != nil {
		return failureOutcome(a, rc, t, tr, rc.Iters-1, err), nil
	}
	if err := rc.save(a, final); err != nil {
		return nil, err
	}
	return &RankOutcome{
		Done:        true,
		Iter:        rc.Iters,
		Weights:     final.Weights,
		WeightsHash: HashWeights(final.Weights),
		Losses:      losses,
	}, nil
}

// rankCheckpoint takes the coordinated checkpoint at `completed`
// iterations: a harvest with nobody dead, so every chunk comes from its
// owner.
func rankCheckpoint(a RankAssignment, rc RankConfig, t comm.Transport, tr Trainer,
	completed int) (*checkpoint.Snapshot, error) {

	rc.beacon("ckpt", completed)
	defer rc.beacon("", completed)
	snap, _, err := wireHarvest(a, t, rc.Deadlines.WithDefaults(), tr,
		comm.Membership{OldSize: a.World}, completed)
	return snap, err
}

// save writes a coordinated checkpoint to CheckpointPath when
// checkpointing is on; rank 0 is the one writer.
func (rc RankConfig) save(a RankAssignment, snap *checkpoint.Snapshot) error {
	if rc.CheckpointEvery == 0 || rc.CheckpointPath == "" || a.Rank != 0 {
		return nil
	}
	return checkpoint.SaveRotate(rc.CheckpointPath, snap, rc.CheckpointKeep)
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
func seedExchange(a RankAssignment, rc RankConfig, t comm.Transport, snap *checkpoint.Snapshot) (*checkpoint.Snapshot, error) {
	if a.SeedFrom < 0 || len(a.SeedTo) == 0 {
		return snap, nil
	}
	tag := Tag{Kind: comm.KindCtl, A: seedTagBase, B: int(a.Epoch)}
	if a.Rank == a.SeedFrom {
		if snap == nil {
			return nil, fmt.Errorf("pipeline: rank %d must seed %v but holds no snapshot", a.Rank, a.SeedTo)
		}
		rc.beacon("seed", int(snap.Step))
		defer rc.beacon("", int(snap.Step))
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
		rc.beacon("seed", 0)
		defer rc.beacon("", 0)
		payload, err := t.RecvTimeout(a.SeedFrom, tag, rc.Deadlines.WithDefaults().Barrier)
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

// stateExportPayload flattens a chunk's state export for the wire:
// [chunk, step] header words followed by W, M, V. The f32 header words
// are exact (chunk and step are small integers).
func stateExportPayload(c int, st StateExport) []float32 {
	out := make([]float32, 0, 2+3*len(st.W))
	out = append(out, float32(c), float32(st.Step))
	out = append(out, st.W...)
	out = append(out, st.M...)
	return append(out, st.V...)
}

func parseStateExport(payload []float32) (c int, st StateExport, err error) {
	if len(payload) < 2 || (len(payload)-2)%3 != 0 {
		return 0, st, fmt.Errorf("pipeline: malformed state export payload (%d words)", len(payload))
	}
	n := (len(payload) - 2) / 3
	c = int(payload[0])
	st.Step = int(payload[1])
	st.W = append([]float32(nil), payload[2:2+n]...)
	st.M = append([]float32(nil), payload[2+n:2+2*n]...)
	st.V = append([]float32(nil), payload[2+2*n:]...)
	return c, st, nil
}

// failureOutcome is the per-rank failure rule of the repair ladder
// (elastic.go), run by RunRank and by RunResilient's rank goroutines alike:
//
//   - ErrClosed: the driver shut this rank down; nothing to agree about.
//   - ErrCrashed or ErrIntegrity: this rank's own state is suspect. It
//     closes its endpoint — every fabric then reports it dead to the
//     survivors — and aborts as dead, so they rebuild its shard from the
//     buddy replica instead of trusting it.
//   - Anything else (an error naming a dead peer, a failed barrier, a
//     peer's failure the driver reports): reopen the transport, agree on
//     the membership over it, and harvest the snapshot every survivor
//     then holds identically.
//
// Any step that cannot complete safely aborts — the driver then falls back
// to a checkpoint restart, which is slower but equally bit-exact.
func failureOutcome(a RankAssignment, rc RankConfig, t comm.Transport, tr Trainer,
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
	dl := rc.Deadlines.WithDefaults()
	evidence := comm.BeginRecovery(t)
	if r, ok := comm.DeadPeer(cause); ok {
		evidence = append(evidence, r)
	}
	rc.beacon("agree", iter)
	m, err := comm.AgreeOverTransport(t, evidence, comm.AgreeConfig{Epoch: a.Epoch, Deadlines: dl})
	rc.beacon("", iter)
	switch {
	case errors.Is(err, comm.ErrEvicted):
		return abort("evicted")
	case errors.Is(err, comm.ErrNoQuorum):
		return abort("no-quorum")
	case err != nil:
		return abort("agreement: " + err.Error())
	}

	rc.beacon("harvest", iter)
	defer rc.beacon("", iter)
	snap, tCut, err := wireHarvest(a, t, dl, tr, m, -1)
	if err != nil {
		return &RankOutcome{
			Iter: iter, Membership: m, Aborted: true,
			Reason: "harvest: " + err.Error(),
		}
	}
	return &RankOutcome{Iter: tCut, Membership: m, Snapshot: snap}
}

// wireHarvest rebuilds the full trainer state on every survivor of an
// agreed membership: each survivor broadcasts every chunk it is the
// chunkSource for (its owned live state, or the buddy shadow of a dead
// owner), at the cut, to all other survivors. A checkpoint passes its cut
// (the completed iterations) and an empty dead set, so every chunk comes
// from its owner. After a failure cut is −1 and a first phase fixes it:
// the survivors exchange a hash of the agreed dead set (divergent views
// abort rather than assemble a franken-snapshot) and their committed step
// phases, whose minimum is the cut. Chunk tags carry the cut, so two
// harvests on one transport never match each other's frames.
func wireHarvest(a RankAssignment, t comm.Transport, dl comm.Deadlines,
	tr Trainer, m comm.Membership, cut int) (*checkpoint.Snapshot, int, error) {

	wp, ok := tr.(*WeiPipe)
	if !ok {
		return nil, 0, fmt.Errorf("pipeline: the repair ladder needs WeiPipe trainers, got %T", tr)
	}
	survivors := m.Survivors()
	if cut < 0 {
		var err error
		if cut, err = agreeCut(a, t, dl, wp, m, survivors); err != nil {
			return nil, 0, err
		}
	}

	mdl := wp.Model()
	offsets := moduleOffsets(mdl)
	snap := newRepairSnapshot(mdl, cut)
	optStep := -1
	sources := make([]int, a.World) // chunk -> serving survivor
	for c := 0; c < a.World; c++ {
		src, fromBuddy, err := chunkSource(c, m)
		if err != nil {
			return nil, 0, err
		}
		sources[c] = src
		if src != a.Rank {
			continue
		}
		var st StateExport
		if fromBuddy {
			st, err = wp.ExportBuddyStateAt(cut)
		} else {
			st, err = wp.ExportOwnedStateAt(cut)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("pipeline: harvest chunk %d: %w", c, err)
		}
		payload := stateExportPayload(c, st)
		chunkTag := Tag{Kind: comm.KindCtl, A: harvestTagBase + c, B: cut}
		for _, r := range survivors {
			if r == a.Rank {
				continue
			}
			if err := t.Send(r, chunkTag, payload); err != nil {
				return nil, 0, err
			}
		}
		if err := placeHarvested(snap, wp, offsets, c, st, &optStep); err != nil {
			return nil, 0, err
		}
	}
	for c := 0; c < a.World; c++ {
		if sources[c] == a.Rank {
			continue
		}
		chunkTag := Tag{Kind: comm.KindCtl, A: harvestTagBase + c, B: cut}
		got, err := t.RecvTimeout(sources[c], chunkTag, dl.Barrier)
		if err != nil {
			return nil, 0, err
		}
		gc, st, perr := parseStateExport(got)
		comm.Release(got)
		if perr != nil {
			return nil, 0, perr
		}
		if gc != c {
			return nil, 0, fmt.Errorf("pipeline: rank %d served chunk %d, expected %d", sources[c], gc, c)
		}
		if err := placeHarvested(snap, wp, offsets, c, st, &optStep); err != nil {
			return nil, 0, err
		}
	}
	snap.Sections["adam.step"] = []float32{float32(optStep)}
	// Spike-detector state is lock-step identical on every rank, so each
	// survivor contributes its own copy locally — no extra wire traffic.
	if ss, err := wp.exportSpikeAt(cut); err == nil && ss != nil {
		snap.Sections[spikeSection] = ss
	}
	return snap, cut, nil
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

// placeHarvested copies one chunk's harvested state into the snapshot,
// validating its extent against the model layout and that every chunk
// carries the same optimizer step count.
func placeHarvested(snap *checkpoint.Snapshot, ref *WeiPipe, offsets []int,
	c int, st StateExport, optStep *int) error {
	lo, hi := ref.chunkRange(c)
	want := offsets[hi] - offsets[lo]
	if len(st.W) != want || len(st.M) != want || len(st.V) != want {
		return fmt.Errorf("pipeline: chunk %d harvest covers %d params, want %d", c, len(st.W), want)
	}
	copy(snap.Weights[offsets[lo]:offsets[hi]], st.W)
	copy(snap.Sections["adam.m"][offsets[lo]:offsets[hi]], st.M)
	copy(snap.Sections["adam.v"][offsets[lo]:offsets[hi]], st.V)
	if *optStep == -1 {
		*optStep = st.Step
	} else if *optStep != st.Step {
		return fmt.Errorf("pipeline: inconsistent optimizer steps across chunks: %d vs %d", *optStep, st.Step)
	}
	return nil
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
