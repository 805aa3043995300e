package pipeline

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/model"
)

// Recoverable is the part of Trainer a restore needs beyond the pieces it
// copies the snapshot into (RestoreSnapshot): the iteration counter.
type Recoverable interface {
	// SetIteration resets the trainer's iteration counter, so wire tags and
	// collective salts agree across ranks after a restart.
	SetIteration(iter int)
}

// SetIteration implements Recoverable for WeiPipe. Beyond the wire-tag
// counter it realigns the step-phase counters the rollbacks are resolved
// against: a trainer restored to iteration i has, by definition, committed
// i step phases, on its owned piece and its shadow alike.
func (w *WeiPipe) SetIteration(iter int) {
	w.iter, w.ownerIters, w.shadowIters = iter, iter, iter
}

// A share is one trainer's part of a coordinated capture: spans of the
// capture's vectors — the weights of the pieces it holds and, in a
// full-state capture, their optimizer moments — and its optimizer step
// count. CaptureSnapshot places every trainer's share in one process;
// RunRank's checkpoint gather and the repair harvest send shares over the
// wire (packShare, placeShare).
type share struct {
	spans []span
	step  int64
}

// A span is the range [lo, hi) of one of a capture's vectors.
type span struct{ vec, lo, hi int }

// The capture vectors a span names, in export order.
const (
	vecWeights = iota
	vecM
	vecV
)

// vector returns the capture vector vec (nil when snap does not carry it).
func vector(snap *checkpoint.Snapshot, vec int) []float32 {
	switch vec {
	case vecWeights:
		return snap.Weights
	case vecM:
		return snap.Sections["adam.m"]
	case vecV:
		return snap.Sections["adam.v"]
	}
	return nil
}

// put copies piece p into snap at p.off — its weights and, in a full-state
// capture, its moments — records the spans in sh and returns p's optimizer
// step count.
func (sh *share) put(snap *checkpoint.Snapshot, p *piece) int64 {
	lo, hi := p.off, p.off+len(p.w)
	copy(snap.Weights[lo:hi], p.w)
	sh.spans = append(sh.spans, span{vecWeights, lo, hi})
	if !fullState(snap) {
		return 0
	}
	sh.spans = append(sh.spans, span{vecM, lo, hi}, span{vecV, lo, hi})
	return int64(p.opt.CopyStateInto(snap.Sections["adam.m"][lo:hi], snap.Sections["adam.v"][lo:hi]))
}

// newCapture allocates the snapshot a capture at `completed` iterations
// fills: the weights and, when withState, the optimizer moments.
func newCapture(mdl *model.Model, completed int, withState bool) *checkpoint.Snapshot {
	total := mdl.NumParams()
	snap := &checkpoint.Snapshot{
		Config:   mdl.Cfg,
		Weights:  make([]float32, total),
		Sections: map[string][]float32{},
		Step:     int64(completed),
	}
	if withState {
		snap.Sections["adam.m"] = make([]float32, total)
		snap.Sections["adam.v"] = make([]float32, total)
	}
	return snap
}

// export copies the pieces tr owns into snap: tr's share of a capture. The
// pieces step together, so they share one step count.
func export(tr Trainer, snap *checkpoint.Snapshot) share {
	var sh share
	o := tr.ownedState()
	for i := range o.pieces {
		sh.step = sh.put(snap, &o.pieces[i])
	}
	return sh
}

// sealCapture finishes a capture once every share is placed: the shares
// must hold every weight and, in a full-state capture, agree on the
// optimizer step, which travels in its own "adam.step" section — with the
// non-finite guard, skipped steps make it run behind the iteration count,
// so the two must not be conflated. The guard's spike window evolves in
// lock-step on every rank, so tr (any rank's trainer) contributes its own
// copy: a resumed run's verdicts match an uninterrupted run's bit for bit.
func sealCapture(snap *checkpoint.Snapshot, shares []share, tr Trainer) error {
	var held [][2]int
	for _, sh := range shares {
		for _, sp := range sh.spans {
			if sp.vec == vecWeights {
				held = append(held, [2]int{sp.lo, sp.hi})
			}
		}
	}
	if next := firstUnheld(held, len(snap.Weights)); next < len(snap.Weights) {
		return fmt.Errorf("pipeline: weight %d held by no rank", next)
	}
	if !fullState(snap) {
		return nil
	}
	for _, sh := range shares[1:] {
		if sh.step != shares[0].step {
			return fmt.Errorf("pipeline: inconsistent optimizer steps across ranks: %d vs %d", shares[0].step, sh.step)
		}
	}
	snap.Sections["adam.step"] = []float32{float32(shares[0].step)}
	ss, err := tr.ownedState().spikeStateAt(int(snap.Step))
	if ss != nil {
		snap.Sections[spikeSection] = ss
	}
	return err
}

// packShare flattens a share for the wire into a comm.GetBuf buffer the
// caller owns: the step and the span count, then each span as (vec, lo, hi)
// followed by its values. The ints ride as control words (comm.IntWord).
func packShare(snap *checkpoint.Snapshot, sh share) []float32 {
	n := 2
	for _, sp := range sh.spans {
		n += 3 + sp.hi - sp.lo
	}
	out := comm.GetBuf(n)[:0]
	out = append(out, comm.IntWord(int(sh.step)), comm.IntWord(len(sh.spans)))
	for _, sp := range sh.spans {
		out = append(out, comm.IntWord(sp.vec), comm.IntWord(sp.lo), comm.IntWord(sp.hi))
		out = append(out, vector(snap, sp.vec)[sp.lo:sp.hi]...)
	}
	return out
}

// placeShare copies a packed share into snap and returns it, validating
// every span against the snapshot.
func placeShare(snap *checkpoint.Snapshot, payload []float32) (share, error) {
	malformed := fmt.Errorf("pipeline: malformed share (%d words)", len(payload))
	if len(payload) < 2 {
		return share{}, malformed
	}
	sh := share{step: int64(comm.WordInt(payload[0]))}
	body := payload[2:]
	for range comm.WordInt(payload[1]) {
		if len(body) < 3 {
			return share{}, malformed
		}
		sp := span{comm.WordInt(body[0]), comm.WordInt(body[1]), comm.WordInt(body[2])}
		dst, body3 := vector(snap, sp.vec), body[3:]
		if sp.lo < 0 || sp.hi < sp.lo || sp.hi > len(dst) || sp.hi-sp.lo > len(body3) {
			return share{}, malformed
		}
		copy(dst[sp.lo:sp.hi], body3)
		body = body3[sp.hi-sp.lo:]
		sh.spans = append(sh.spans, sp)
	}
	if len(body) != 0 {
		return share{}, malformed
	}
	return sh, nil
}

// CaptureSnapshot takes a coordinated checkpoint of a cluster whose
// trainers share this process: the assembled post-step weights plus the
// optimizer moments, each rank contributing what it holds, and the
// completed-iteration count (which doubles as the data cursor — iteration i
// always trains on batchesFn(i)). It is the in-memory twin of RunRank's
// checkpoint gather, from the same per-trainer export. Every trainer must
// be quiescent (between iterations).
func CaptureSnapshot(trainers []Trainer, completedIters int) (*checkpoint.Snapshot, error) {
	snap := newCapture(trainers[0].Model(), completedIters, true)
	shares := make([]share, len(trainers))
	for i, tr := range trainers {
		shares[i] = export(tr, snap)
	}
	if err := sealCapture(snap, shares, trainers[0]); err != nil {
		return nil, err
	}
	return snap, nil
}

// snapshotOptStep returns the optimizer step count a snapshot carries: the
// dedicated "adam.step" section when present, the iteration counter for
// older snapshots (correct whenever no step was ever guard-skipped).
func snapshotOptStep(snap *checkpoint.Snapshot) int64 {
	if s := snap.Sections["adam.step"]; len(s) == 1 {
		return int64(s[0])
	}
	return snap.Step
}

// fullState reports whether snap carries the optimizer moments — a
// coordinated checkpoint rather than a weight-only snapshot.
func fullState(snap *checkpoint.Snapshot) bool {
	return snap.Sections["adam.m"] != nil && snap.Sections["adam.v"] != nil
}

// RestoreSnapshot loads a coordinated checkpoint into a fresh cluster:
// every rank copies its range of the snapshot back into each piece it
// holds — the weights and, from a full-state snapshot, the optimizer
// moments — and takes the snapshot's iteration counter. A WeiPipe rank
// running buddy replication loads its shadow the same way, from the
// successor chunk's range, which is how elastic repair re-arms the next
// failure's recovery without any extra traffic. Because the snapshot is a
// full flat state, the cluster restored into may have a different world
// size than the one that captured it (that is the elastic re-shard).
// Training resumed from the restored state is bit-identical to a run that
// never stopped. A weight-only snapshot loads the weights alone: the
// optimizer stays fresh and the iteration counter at 0.
func RestoreSnapshot(snap *checkpoint.Snapshot, trainers []Trainer) error {
	mdl := trainers[0].Model()
	if len(snap.Weights) != mdl.NumParams() {
		return fmt.Errorf("pipeline: model has %d params, snapshot %d", mdl.NumParams(), len(snap.Weights))
	}
	for _, tr := range trainers {
		o := tr.ownedState()
		for i := range o.pieces {
			if err := o.pieces[i].load(snap); err != nil {
				return err
			}
		}
		if o.shadow != nil {
			if err := o.shadow.load(snap); err != nil {
				return err
			}
		}
		if fullState(snap) {
			tr.SetIteration(int(snap.Step))
			o.restoreGuard(snap.Sections[spikeSection], int(snap.Step))
		}
	}
	return nil
}

// RunResilient is the in-process supervisor, the twin of internal/launch's
// across processes. Per attempt it builds one endpoint per rank with
// hooks.Transports (attempt 0 is the initial bring-up; elastic repair
// changes the requested size), runs one RunRank per rank over them in a
// goroutine, collects the outcomes and plans the next attempt. RunCluster,
// weipipe-train and launch.ReplayOracle all run on it. The run starts from
// hooks.Snapshot, else from a file already at spec.CheckpointPath.
//
// When a rank fails (peer death, transport closure, injected crash,
// integrity violation, watchdog declaration), ElasticNone aborts every rank
// and restarts the same world from the last coordinated checkpoint;
// ElasticShrink and ElasticSpare let the ranks climb the repair ladder
// (elastic.go) and re-shard across the survivors or admit a spare, losing
// at most the iteration in flight and reading nothing from disk. Either way
// the continued run's loss trajectory is bit-identical to an uninterrupted
// run of the same world-size history.
func RunResilient(spec RunSpec, hooks RunHooks) (*ClusterResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch {
	case hooks.Transports != nil:
	case spec.TCP:
		hooks.Transports = spec.LoopbackTCP(nil)
	default:
		hooks.Transports = func(_, size int) ([]comm.Transport, error) {
			cluster := comm.NewCluster(size)
			cluster.AttachTrace(spec.Options.Trace)
			return cluster.Transports(), nil
		}
	}
	if hooks.Snapshot == nil && spec.CheckpointPath != "" {
		if _, err := os.Stat(spec.CheckpointPath); err == nil {
			loaded, err := checkpoint.Load(spec.CheckpointPath)
			if err != nil {
				return nil, fmt.Errorf("pipeline: resume checkpoint: %w", err)
			}
			hooks.Snapshot = loaded
		}
	}

	losses := make([]float64, spec.Iters)
	world := spec.World
	spares := 0
	if spec.Elastic == ElasticSpare {
		spares = spec.Spares
	}
	var repairs []RepairEvent
	for attempt := 0; ; attempt++ {
		res, outs, err := runRanks(attempt, world, spec, hooks, losses)
		if err == nil {
			res.Repairs = repairs
			return res, nil
		}
		// The next restart point: the newest checkpoint a rank assembled in
		// this attempt — every rank's share of it arrived, so it is whole.
		seed := hooks.Snapshot
		for _, o := range outs {
			if o != nil && o.Checkpoint != nil && o.Checkpoint != seed &&
				(hooks.Snapshot == seed || o.Checkpoint.Step > hooks.Snapshot.Step) {
				hooks.Snapshot = o.Checkpoint
			}
		}
		survivors, dead, repair, rerr := agreedRepair(outs)
		if rerr != nil {
			err = fmt.Errorf("%w (repair: %v)", err, rerr)
		}
		if spec.MaxRestarts == 0 {
			return nil, err
		}
		if attempt >= spec.MaxRestarts {
			return nil, fmt.Errorf("pipeline: failed after %d restarts: %w", attempt, err)
		}
		if repair == nil {
			// No repair: retry at the current world size from the last
			// checkpoint (or from scratch).
			continue
		}
		cut := int(repair.Step)
		admit, ok := PlanRepair(survivors, len(dead), spares, spec.Model.NumModules(), spec.MicroBatches)
		if !ok {
			continue
		}
		ev := RepairEvent{
			Attempt: attempt, Iteration: cut, Dead: dead, Policy: ElasticShrink,
			OldSize: world, NewSize: survivors + admit, Snapshot: repair,
		}
		if admit > 0 {
			ev.Policy = ElasticSpare
			spares -= admit
		}
		hooks.Snapshot, world = ev.Snapshot, ev.NewSize
		repairs = append(repairs, ev)
		if hooks.OnRepair != nil {
			hooks.OnRepair(ev)
		}
	}
}

// runRanks runs one attempt: one RunRank per rank over fresh endpoints. It
// returns the result when every rank completed, else the ranks' outcomes
// (nil for a rank that returned a hard error) and the failure that started
// it. Without repair a failing rank aborts at once and runRanks closes
// every endpoint, which brings the peers home; with repair, a rank that
// leaves the ladder aborted dies to its peers, as a process that exits
// does, and so does a rank that finished once the attempt has failed. Every
// endpoint is closed before runRanks returns, so nothing leaks into the
// next attempt.
func runRanks(attempt, world int, spec RunSpec, hooks RunHooks, losses []float64) (*ClusterResult, []*RankOutcome, error) {
	ts, err := hooks.Transports(attempt, world)
	if err != nil {
		return nil, nil, fmt.Errorf("attempt %d bring-up: %w", attempt, err)
	}
	closeAll := sync.OnceFunc(func() {
		for _, t := range ts {
			t.Close()
		}
	})
	defer closeAll()
	if len(ts) != world {
		return nil, nil, fmt.Errorf("attempt %d: got %d transports for %d ranks", attempt, len(ts), world)
	}
	var wd *watchdog
	var board *ProgressBoard
	if hooks.Watchdog != nil {
		board = NewProgressBoard(world)
		for r := range ts {
			ts[r] = WrapBeacon(ts[r], board, r)
		}
		// Declaring a straggler dead = closing its endpoint: its next
		// transport op fails and the failure flows through the same
		// typed-error repair path as a crash.
		wd = startWatchdog(*hooks.Watchdog, board, func(rank int) { ts[rank].Close() })
		defer wd.Stop()
	}

	repair := spec.Elastic != ElasticNone
	type result struct {
		rank int
		out  *RankOutcome
		err  error
	}
	results := make(chan result, world)
	iterStart := time.Now() // rank 0's, for the watchdog's median
	for r := range world {
		rh := RunHooks{Batches: hooks.Batches, Snapshot: hooks.Snapshot}
		if r == 0 {
			// Rank 0 reports each committed iteration, once.
			rh.OnIteration = func(iter int, loss float64) {
				if wd != nil {
					wd.NoteIteration(time.Since(iterStart))
					iterStart = time.Now()
				}
				losses[iter] = loss
				if hooks.OnIteration != nil {
					hooks.OnIteration(iter, loss)
				}
			}
		}
		go func() {
			out, err := RunRank(RankAssignment{Epoch: uint32(attempt), Rank: r, World: world, SeedFrom: -1}, ts[r], spec, rh)
			results <- result{r, out, err}
		}()
	}

	outs := make([]*RankOutcome, world)
	var failures []error
	var finished []int // ranks home with Done whose endpoints are open
	for range world {
		res := <-results
		outs[res.rank] = res.out
		switch {
		case res.err != nil:
			failures = append(failures, res.err)
			closeAll()
		case !res.out.Done:
			failures = append(failures, res.out.Err)
			if !repair {
				closeAll()
			} else if res.out.Aborted {
				ts[res.rank].Close()
			}
		default:
			finished = append(finished, res.rank)
		}
		if len(failures) == 0 {
			// A finished rank's endpoint stays open while the attempt is
			// healthy: on the in-process fabric a close fails every
			// pending take, its peers' final gather included.
			continue
		}
		// The attempt has failed: a finished rank is as gone as a dead one,
		// so close it and the survivors' agreement suspects it at once
		// instead of after a full round.
		for _, r := range finished {
			CloseMesh(ts[r], spec.Deadlines)
		}
		finished = finished[:0]
		board.Fail()
	}
	if len(failures) > 0 {
		return nil, outs, rootCause(failures)
	}
	res := &ClusterResult{
		Losses:     slices.Clone(losses),
		Weights:    outs[0].Weights,
		Checkpoint: outs[0].Checkpoint,
	}
	for r, o := range outs {
		res.SkippedSteps = max(res.SkippedSteps, o.SkippedSteps)
		res.SpikeSteps = max(res.SpikeSteps, o.SpikeSteps)
		res.ArenaHighWater = max(res.ArenaHighWater, o.ArenaHighWater)
		res.ArenaBytes = max(res.ArenaBytes, o.ArenaBytes)
		res.Comm = append(res.Comm, ts[r].CommStats())
	}
	return res, outs, nil
}

// rootCause picks the failure that started an attempt from the ranks'
// errors in arrival order: the first that is not a consequence of another
// rank's failure — its endpoint closed under it, or a peer found dead.
func rootCause(errs []error) error {
	for _, err := range errs {
		if !errors.Is(err, comm.ErrClosed) && !errors.Is(err, comm.ErrPeerDead) {
			return err
		}
	}
	return errs[0]
}

// agreedRepair reads the repair from the ranks' outcomes: the survivors —
// the ranks that harvested a snapshot — must agree on the cut, the dead
// set and the snapshot's bits, as the launch supervisor checks them across
// processes. No survivors, or divergent ones, mean no repair, and the
// restart loop falls back to the checkpoint.
func agreedRepair(outs []*RankOutcome) (survivors int, dead []int, repair *checkpoint.Snapshot, err error) {
	var ref *RankOutcome
	for _, o := range outs {
		if o == nil || o.Snapshot == nil {
			continue
		}
		if ref == nil {
			ref = o
		} else if o.Iter != ref.Iter || !slices.Equal(o.Membership.Dead, ref.Membership.Dead) ||
			HashWeights(o.Snapshot.Weights) != HashWeights(ref.Snapshot.Weights) {
			return 0, nil, nil, fmt.Errorf("survivors diverged: cut %d dead %v vs cut %d dead %v",
				o.Iter, o.Membership.Dead, ref.Iter, ref.Membership.Dead)
		}
		survivors++
	}
	if ref == nil {
		return 0, nil, nil, nil
	}
	return survivors, ref.Membership.Dead, ref.Snapshot, nil
}
