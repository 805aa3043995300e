package pipeline

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/trace"
)

// Recoverable is implemented by trainers that can checkpoint and restore
// their full training state: the owned weights (Owner), the optimizer
// moments of the owned range, and the iteration counter. It is what
// coordinated checkpoint/restart needs from each rank.
type Recoverable interface {
	Owner
	// OwnedModules reports the contiguous module range whose weights and
	// optimizer state the rank owns.
	OwnedModules() (lo, hi int)
	// ExportOptimState returns the optimizer step count and copies of the
	// first/second moment vectors covering exactly the owned module range
	// (flat, in module order).
	ExportOptimState() (step int64, m, v []float32)
	// RestoreOptimState loads a previously exported state (copied in).
	RestoreOptimState(step int64, m, v []float32) error
	// SetIteration resets the trainer's iteration counter, so wire tags and
	// collective salts agree across ranks after a restart.
	SetIteration(iter int)
}

// ExportOptimState implements Recoverable for WeiPipe (the owned chunk).
func (w *WeiPipe) ExportOptimState() (int64, []float32, []float32) {
	step, m, v := w.opt.ExportState()
	return int64(step), m, v
}

// RestoreOptimState implements Recoverable for WeiPipe. Loading moments is
// a legitimate mutation of guarded resident state, so the integrity guards
// are re-armed eagerly — deferring the refresh to the next iteration entry
// would let a flip that lands in the window go unseen.
func (w *WeiPipe) RestoreOptimState(step int64, m, v []float32) error {
	if err := w.opt.LoadState(int(step), m, v); err != nil {
		return err
	}
	w.refreshResidentGuards()
	return nil
}

// SetIteration implements Recoverable for WeiPipe. Beyond the wire-tag
// counter it realigns the step-phase bookkeeping the elastic machinery
// keeps: a trainer restored to iteration i has, by definition, committed i
// step phases, holds no rollback, and its buddy shadow (if any) starts the
// same cut with no stashed retire gradient.
func (w *WeiPipe) SetIteration(iter int) {
	w.iter = iter
	w.ownerIters = iter
	w.rbValid = false
	if w.buddy != nil {
		w.buddy.iters = iter
		w.buddy.rbValid = false
		w.buddy.pendingLocal = false
	}
}

// ExportOptimState implements Recoverable for the serial reference.
func (s *Serial) ExportOptimState() (int64, []float32, []float32) {
	step, m, v := s.opt.ExportState()
	return int64(step), m, v
}

// RestoreOptimState implements Recoverable for the serial reference.
func (s *Serial) RestoreOptimState(step int64, m, v []float32) error {
	return s.opt.LoadState(int(step), m, v)
}

// SetIteration implements Recoverable for the serial reference (stateless:
// the AdamW step count is the only counter).
func (s *Serial) SetIteration(int) {}

// moduleOffsets returns the flat-vector offset of every module boundary.
func moduleOffsets(mdl *model.Model) []int {
	offsets := make([]int, len(mdl.Modules)+1)
	for i := 0; i < len(mdl.Modules); i++ {
		offsets[i+1] = offsets[i] + mdl.ModuleParamSize(i)
	}
	return offsets
}

// CaptureSnapshot takes a coordinated checkpoint of a cluster: the
// assembled post-step weights plus the optimizer moments, each rank
// contributing its owned range, and the completed-iteration count (which
// doubles as the data cursor — iteration i always trains on batchesFn(i)).
// The optimizer step count travels in its own "adam.step" section: with the
// non-finite guard, skipped steps make it run behind the iteration count,
// so the two must not be conflated. Every trainer must be quiescent
// (between iterations) and implement Recoverable.
func CaptureSnapshot(trainers []Trainer, completedIters int) (*checkpoint.Snapshot, error) {
	// The capture is one coordinated barrier; span it once, on the first
	// rank that carries a tracer, rather than once per rank.
	var ctr *trace.Tracer
	for _, tr := range trainers {
		if tj, ok := tr.(tracedRunner); ok && tj.tracer() != nil {
			ctr = tj.tracer()
			break
		}
	}
	span := ctr.Begin()
	defer ctr.End(span, trace.CodeCkpt, int64(completedIters), 0)
	mdl := trainers[0].Model()
	offsets := moduleOffsets(mdl)
	total := mdl.NumParams()
	snap := &checkpoint.Snapshot{
		Config:  mdl.Cfg,
		Weights: AssembleWeights(trainers),
		Sections: map[string][]float32{
			"adam.m": make([]float32, total),
			"adam.v": make([]float32, total),
		},
		Step: int64(completedIters),
	}
	optStep := int64(-1)
	for _, tr := range trainers {
		rec, ok := tr.(Recoverable)
		if !ok {
			return nil, fmt.Errorf("pipeline: %T cannot checkpoint optimizer state", tr)
		}
		lo, hi := rec.OwnedModules()
		step, m, v := rec.ExportOptimState()
		want := offsets[hi] - offsets[lo]
		if len(m) != want || len(v) != want {
			return nil, fmt.Errorf("pipeline: %T optimizer state covers %d params, owned range holds %d",
				tr, len(m), want)
		}
		copy(snap.Sections["adam.m"][offsets[lo]:offsets[hi]], m)
		copy(snap.Sections["adam.v"][offsets[lo]:offsets[hi]], v)
		if optStep == -1 {
			optStep = step
		} else if optStep != step {
			return nil, fmt.Errorf("pipeline: inconsistent optimizer steps across ranks: %d vs %d", optStep, step)
		}
	}
	snap.Sections["adam.step"] = []float32{float32(optStep)}
	// The spike-detector window evolves in lock-step on every rank; the
	// first trainer carrying one contributes the (identical) state, so a
	// resumed run's verdicts match an uninterrupted run's bit-for-bit.
	for _, tr := range trainers {
		if wp, ok := tr.(*WeiPipe); ok {
			ss, err := wp.exportSpikeAt(completedIters)
			if err != nil {
				return nil, err
			}
			if ss != nil {
				snap.Sections[spikeSection] = ss
			}
			break
		}
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
// every rank loads the weights it holds (Owner.LoadWeights), its owned slice
// of the optimizer moments, and the snapshot's iteration counter; WeiPipe
// ranks running buddy replication additionally seed their shadow replica
// from the successor chunk's slice — which is how elastic repair re-arms the
// next failure's recovery without any extra traffic. Because the snapshot is
// a full flat state, the cluster restored into may have a different world
// size than the one that captured it (that is the elastic re-shard).
// Training resumed from the restored state is bit-identical to a run that
// never stopped. A weight-only snapshot loads the weights alone (a buddy
// shadow's included): the optimizer stays fresh and the iteration counter
// at 0.
func RestoreSnapshot(snap *checkpoint.Snapshot, trainers []Trainer) error {
	mdl := trainers[0].Model()
	if len(snap.Weights) != mdl.NumParams() {
		return fmt.Errorf("pipeline: model has %d params, snapshot %d", mdl.NumParams(), len(snap.Weights))
	}
	offsets := moduleOffsets(mdl)
	am, av := snap.Sections["adam.m"], snap.Sections["adam.v"]
	optStep := snapshotOptStep(snap)
	for _, tr := range trainers {
		tr.(Owner).LoadWeights(snap.Weights)
		if !fullState(snap) {
			continue
		}
		rec, ok := tr.(Recoverable)
		if !ok {
			return fmt.Errorf("pipeline: %T cannot restore optimizer state", tr)
		}
		lo, hi := rec.OwnedModules()
		if err := rec.RestoreOptimState(optStep, am[offsets[lo]:offsets[hi]], av[offsets[lo]:offsets[hi]]); err != nil {
			return err
		}
		rec.SetIteration(int(snap.Step))
		if wp, ok := tr.(*WeiPipe); ok {
			wp.restoreSpikeState(snap.Sections[spikeSection])
		}
		if wp, ok := tr.(*WeiPipe); ok && wp.buddy != nil {
			c, _ := wp.BuddyChunk()
			blo, bhi := wp.chunkRange(c)
			st := StateExport{
				W:    snap.Weights[offsets[blo]:offsets[bhi]],
				M:    am[offsets[blo]:offsets[bhi]],
				V:    av[offsets[blo]:offsets[bhi]],
				Step: int(optStep),
			}
			if err := wp.SeedBuddyFromState(st, int(snap.Step)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ResilientOptions configures RunResilient.
type ResilientOptions struct {
	// CheckpointEvery takes a coordinated checkpoint after every n-th
	// completed iteration and after the final one (0 = never; elastic
	// repair still works, since it recovers from buddy replicas, not
	// checkpoints).
	CheckpointEvery int
	// CheckpointPath, when set, persists each checkpoint to disk (and an
	// existing file there seeds the run, resuming a previous process).
	CheckpointPath string
	// KeepCheckpoints rotates the on-disk checkpoint, retaining the last k
	// files (path, path.1, …, path.k−1). 0 or 1 keeps only the latest.
	KeepCheckpoints int
	// MaxRestarts bounds the recovery attempts; 0 means fail on the first
	// rank failure like a plain run.
	MaxRestarts int
	// Elastic selects how dead ranks are handled: checkpoint restart at the
	// same world size (ElasticNone), re-sharding across the survivors
	// (ElasticShrink), or admitting standby spares (ElasticSpare). Both
	// elastic policies climb the repair ladder (elastic.go) at the failure
	// barrier — no checkpoint is read — and fall back to checkpoint
	// restart when repair is impossible. Elastic repair turns buddy
	// replication on.
	Elastic ElasticPolicy
	// Spares is the standby rank budget ElasticSpare may admit.
	Spares int
	// Watchdog, when set, runs a straggler watchdog over per-rank progress
	// beacons; see WatchdogConfig.
	Watchdog *WatchdogConfig
	// OnRepair is called after each successful elastic repair.
	OnRepair func(RepairEvent)
	// InitialSnapshot, when set, seeds the run from an in-memory snapshot
	// instead of CheckpointPath — the hook the repair equivalence tests use
	// to start a fresh cluster from a harvested repair state. A weight-only
	// snapshot seeds the weights alone (RestoreSnapshot).
	InitialSnapshot *checkpoint.Snapshot
	// WrapTransport, when set, wraps each rank's transport per attempt —
	// the hook the chaos tests use to inject rank crashes. The straggler
	// watchdog's beacons wrap outside this, so injected delays register as
	// stalls.
	WrapTransport func(attempt, rank int, t comm.Transport) comm.Transport
	// OnIteration is called at each completed iteration barrier.
	OnIteration func(iter int, loss float64)
	// LR, when set, is evaluated before every iteration and applied to each
	// trainer implementing LRSetter. Because it is a function of the
	// iteration index alone, replayed iterations after a restart see the
	// same learning rate.
	LR func(iter int) float64
}

// attemptFailure is the evidence one failed attempt hands the restart loop:
// the triggering error, the iteration it struck and — when the survivors
// climbed the repair ladder to a harvested snapshot — how many survived,
// the agreed dead set and that snapshot.
type attemptFailure struct {
	err       error
	iter      int
	survivors int
	dead      []int
	repair    *checkpoint.Snapshot
}

// RunResilient is the in-process training loop — RunCluster, weipipe-train
// and launch.ReplayOracle all run on it. It drives `iters` lock-step
// iterations of strategy s on p ranks and — when any rank fails
// (peer death, transport closure, injected crash, integrity violation,
// watchdog declaration) — continues as the ElasticPolicy chooses:
// ElasticNone closes every endpoint and rebuilds the same world from the
// last coordinated checkpoint; ElasticShrink and ElasticSpare climb the
// repair ladder RunRank climbs (elastic.go) — agreement and harvest over
// the ranks' own transports — and re-shard across the survivors or admit
// a spare, losing at most the iteration in flight and reading nothing from
// disk. Either way the continued run's loss trajectory is bit-identical to
// an uninterrupted run of the same world-size history.
//
// transports builds one endpoint per rank for each incarnation of the
// cluster (attempt 0 is the initial bring-up); elastic repair changes the
// requested size between attempts.
func RunResilient(s Strategy, p int, cfg model.Config, opts Options, iters int,
	batchesFn func(iter int) []data.Batch,
	transports func(attempt, size int) ([]comm.Transport, error),
	ropts ResilientOptions) (*ClusterResult, error) {

	losses := make([]float64, iters)
	snap := ropts.InitialSnapshot
	if snap == nil && ropts.CheckpointPath != "" {
		if _, err := os.Stat(ropts.CheckpointPath); err == nil {
			loaded, err := checkpoint.Load(ropts.CheckpointPath)
			if err != nil {
				return nil, fmt.Errorf("pipeline: resume checkpoint: %w", err)
			}
			if !fullState(loaded) {
				return nil, fmt.Errorf("pipeline: %s is a weight-only snapshot (no optimizer state); full-state resume needs a checkpoint written by RunResilient mid-run", ropts.CheckpointPath)
			}
			snap = loaded
		}
	}

	world := p
	spares := 0
	if ropts.Elastic == ElasticSpare {
		spares = ropts.Spares
	}
	var repairs []RepairEvent
	for attempt := 0; ; attempt++ {
		res, fail := runAttempt(s, world, cfg, opts, iters, batchesFn, transports, ropts, attempt, losses, &snap)
		if fail == nil {
			res.Repairs = repairs
			return res, nil
		}
		if ropts.MaxRestarts == 0 {
			return nil, fail.err
		}
		if attempt >= ropts.MaxRestarts {
			return nil, fmt.Errorf("pipeline: failed after %d restarts: %w", attempt, fail.err)
		}
		if fail.repair == nil {
			// No repair: retry at the current world size from the last
			// checkpoint (or from scratch).
			continue
		}
		cut := int(fail.repair.Step)
		admit, ok := PlanRepair(fail.survivors, len(fail.dead), spares, cfg.NumModules(),
			len(batchesFn(min(cut, iters-1))))
		if !ok {
			continue
		}
		ev := RepairEvent{
			Attempt: attempt, Iteration: cut, Dead: fail.dead, Policy: ElasticShrink,
			OldSize: world, NewSize: fail.survivors + admit, Snapshot: fail.repair,
		}
		if admit > 0 {
			ev.Policy = ElasticSpare
			spares -= admit
		}
		snap, world = ev.Snapshot, ev.NewSize
		repairs = append(repairs, ev)
		if ropts.OnRepair != nil {
			ropts.OnRepair(ev)
		}
	}
}

// errIterationAborted is the failure a rank that finished the iteration
// takes into the repair ladder once a peer failed it: the iteration did not
// commit cluster-wide.
var errIterationAborted = errors.New("pipeline: a peer failed the iteration")

// runAttempt runs one incarnation of the cluster: bring-up, (optional)
// restore, lock-step iterations with checkpointing, teardown. On a rank
// failure under ElasticNone it closes every transport — unblocking ranks
// stuck in Recv — and waits for all rank goroutines, so nothing leaks into
// the next attempt. Under an elastic policy every rank instead takes its
// error (or, if it finished the iteration, errIterationAborted) to
// failureOutcome, and runAttempt reports the snapshot the survivors
// harvested.
func runAttempt(s Strategy, p int, cfg model.Config, opts Options, iters int,
	batchesFn func(iter int) []data.Batch,
	transports func(attempt, size int) ([]comm.Transport, error),
	ropts ResilientOptions, attempt int,
	losses []float64, snap **checkpoint.Snapshot) (*ClusterResult, *attemptFailure) {

	ts, err := transports(attempt, p)
	if err != nil {
		return nil, &attemptFailure{err: fmt.Errorf("attempt %d bring-up: %w", attempt, err)}
	}
	if len(ts) != p {
		for _, t := range ts {
			t.Close()
		}
		return nil, &attemptFailure{err: fmt.Errorf("attempt %d: got %d transports for %d ranks", attempt, len(ts), p)}
	}
	if ropts.WrapTransport != nil {
		for r := range ts {
			ts[r] = ropts.WrapTransport(attempt, r, ts[r])
		}
	}
	var board *ProgressBoard
	if ropts.Watchdog != nil {
		board = NewProgressBoard(p)
		for r := range ts {
			ts[r] = WrapBeacon(ts[r], board, r)
		}
	}
	closeAll := func() {
		for _, t := range ts {
			t.Close()
		}
	}

	elastic := ropts.Elastic != ElasticNone
	optsRank := opts
	// The repair ladder needs every shard replicated; the buddy belt rides
	// along off the critical path, so turning it on costs no blocking sends.
	optsRank.buddy = elastic
	trainers := make([]Trainer, p)
	for r := 0; r < p; r++ {
		tr, err := New(s, ts[r], cfg, optsRank)
		if err != nil {
			closeAll()
			return nil, &attemptFailure{err: err}
		}
		if board != nil {
			if ps, ok := tr.(progressSink); ok {
				ps.SetProgressBoard(board, r)
			}
		}
		trainers[r] = tr
	}
	start := 0
	if *snap != nil {
		if err := RestoreSnapshot(*snap, trainers); err != nil {
			closeAll()
			return nil, &attemptFailure{err: err}
		}
		if fullState(*snap) {
			start = int((*snap).Step)
		}
		if attempt > 0 {
			// Mark the recovery restore on the timeline: attempt index and
			// the iteration training resumes from.
			for _, tr := range trainers {
				if tj, ok := tr.(tracedRunner); ok && tj.tracer() != nil {
					tj.tracer().Instant(trace.CodeRepair, int64(attempt), int64(start))
					break
				}
			}
		}
	}

	var wd *watchdog
	if ropts.Watchdog != nil {
		wd = startWatchdog(*ropts.Watchdog, board, func(rank int) {
			// Declaring a straggler dead = closing its endpoint: its next
			// transport op fails and the failure flows through the same
			// typed-error repair path as a crash.
			ts[rank].Close()
		})
		defer wd.Stop()
	}

	type outcome struct {
		rank int
		loss float64
		err  error
	}
	var finished []int // ranks done with the iteration before it failed
	for iter := start; iter < iters; iter++ {
		if ropts.LR != nil {
			lr := ropts.LR(iter)
			for _, tr := range trainers {
				if ls, ok := tr.(LRSetter); ok {
					ls.SetLR(lr)
				}
			}
		}
		batches := batchesFn(iter)
		iterStart := time.Now()
		results := make(chan outcome, p)
		for r := 0; r < p; r++ {
			if board != nil {
				board.SetIdle(r, false)
			}
			go func(r int) {
				rt := opts.Trace.Rank(r)
				span := rt.Begin()
				loss, err := trainers[r].TrainIteration(batches)
				rt.End(span, trace.CodeStep, int64(iter), 0)
				if board != nil {
					board.SetIdle(r, true)
				}
				results <- outcome{rank: r, loss: loss, err: err}
			}(r)
		}
		// Under an elastic policy each rank climbs the repair ladder on its
		// own transport, as a RunRank process would.
		var ladder chan *RankOutcome
		climb := func(r int, cause error) {
			a := RankAssignment{Epoch: uint32(attempt), Rank: r, World: p}
			go func() { ladder <- failureOutcome(a, RankConfig{}, ts[r], trainers[r], iter, cause) }()
		}
		var firstErr error
		finished = finished[:0]
		var iterLoss float64
		for got := 0; got < p; got++ {
			o := <-results
			if o.err == nil {
				if o.rank == 0 {
					iterLoss = o.loss
				}
				if firstErr == nil {
					finished = append(finished, o.rank)
					continue
				}
				o.err = errIterationAborted
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("rank %d, iteration %d: %w", o.rank, iter, o.err)
				if wd != nil {
					wd.Stop()
				}
				if !elastic {
					// Surviving ranks are blocked in Recv on a protocol that
					// can no longer complete: closing every endpoint fails
					// their receives and brings them home.
					closeAll()
					continue
				}
				ladder = make(chan *RankOutcome, p)
				for _, r := range finished {
					climb(r, errIterationAborted)
				}
			}
			if elastic {
				climb(o.rank, o.err)
			}
		}
		if firstErr != nil {
			fail := &attemptFailure{err: firstErr, iter: iter}
			if elastic {
				outs := make([]*RankOutcome, p)
				for r := range outs {
					outs[r] = <-ladder
				}
				closeAll()
				if err := agreedRepair(outs, fail); err != nil {
					fail.err = fmt.Errorf("%w (repair: %v)", firstErr, err)
				}
			}
			return nil, fail
		}
		if wd != nil {
			wd.NoteIteration(time.Since(iterStart))
		}
		losses[iter] = iterLoss
		if ropts.OnIteration != nil {
			ropts.OnIteration(iter, iterLoss)
		}
		if ropts.CheckpointEvery > 0 && ((iter+1)%ropts.CheckpointEvery == 0 || iter+1 == iters) {
			// The capture (and any disk write below) is a long off-wire
			// barrier; beacon through it so a slow checkpoint never reads as
			// a stalled rank.
			var ns *checkpoint.Snapshot
			err := BeaconBarrier(board, 0, 0, func() error {
				var cerr error
				ns, cerr = CaptureSnapshot(trainers, iter+1)
				return cerr
			})
			if err != nil {
				closeAll()
				return nil, &attemptFailure{err: err, iter: iter}
			}
			if ropts.CheckpointPath != "" {
				if err := checkpoint.SaveRotate(ropts.CheckpointPath, ns, ropts.KeepCheckpoints); err != nil {
					closeAll()
					return nil, &attemptFailure{err: err, iter: iter}
				}
			}
			*snap = ns
		}
	}

	res := &ClusterResult{
		Losses:         append([]float64(nil), losses...),
		Weights:        AssembleWeights(trainers),
		SkippedSteps:   maxSkipped(trainers),
		SpikeSteps:     maxSpikes(trainers),
		Checkpoint:     *snap,
		ArenaHighWater: maxArenaHighWater(trainers),
	}
	for _, t := range ts {
		if m, ok := t.(comm.Meter); ok {
			res.Comm = append(res.Comm, m.CommStats())
		}
	}
	closeAll()
	return res, nil
}

// agreedRepair fills fail from the ranks' repair outcomes: the survivors —
// the ranks that harvested a snapshot — must agree on the cut, the dead
// set and the snapshot's bits, as the launch supervisor checks them across
// processes. Divergence leaves fail without a repair, so the restart loop
// falls back to the checkpoint.
func agreedRepair(outs []*RankOutcome, fail *attemptFailure) error {
	var survivors []*RankOutcome
	for _, o := range outs {
		if o.Snapshot != nil {
			survivors = append(survivors, o)
		}
	}
	if len(survivors) == 0 {
		return nil
	}
	ref := survivors[0]
	for _, o := range survivors[1:] {
		if o.Iter != ref.Iter || !slices.Equal(o.Membership.Dead, ref.Membership.Dead) ||
			HashWeights(o.Snapshot.Weights) != HashWeights(ref.Snapshot.Weights) {
			return fmt.Errorf("survivors diverged: cut %d dead %v vs cut %d dead %v",
				o.Iter, o.Membership.Dead, ref.Iter, ref.Membership.Dead)
		}
	}
	fail.survivors, fail.dead, fail.repair = len(survivors), ref.Membership.Dead, ref.Snapshot
	return nil
}

// tracedRunner is implemented by runners that carry a runtime tracer; the
// checkpoint barrier uses it to attribute its span without widening the
// Trainer interface.
type tracedRunner interface{ tracer() *trace.Tracer }

func (s *Serial) tracer() *trace.Tracer    { return s.tr }
func (d *DP) tracer() *trace.Tracer        { return d.tr }
func (f *FSDP) tracer() *trace.Tracer      { return f.tr }
func (p *PP) tracer() *trace.Tracer        { return p.tr }
func (w *WeiPipe) tracer() *trace.Tracer   { return w.tr }
func (h *WeiPipeDP) tracer() *trace.Tracer { return h.inner.tr }
