package pipeline

import (
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
)

// rankDeadlines is the shrunk budget the in-process RunRank tests use:
// detector in hundreds of milliseconds, protocol deadlines above it.
func rankDeadlines() comm.Deadlines {
	return comm.Deadlines{
		Dial:       10 * time.Second,
		Heartbeat:  20 * time.Millisecond,
		PeerDead:   800 * time.Millisecond,
		Retransmit: 40 * time.Millisecond,
		AgreeRound: 2 * time.Second,
		Barrier:    5 * time.Second,
	}
}

// buddyOpts turns on buddy replication, as the drivers do, for the tests
// that build trainers by hand.
func buddyOpts() Options {
	o := eqOpts()
	o.buddy = true
	return o
}

// runIncarnation drives one cluster incarnation with every rank in its own
// goroutine over a real TCP mesh — processes minus the fork — with repair
// on, as in a weipipe-launch fleet. assignFn and hooksFn, when set,
// customise each rank's assignment and hooks; hooksFn also sees the rank's
// endpoint, for the tests that sever it mid-run the way a SIGKILL would.
func runIncarnation(t *testing.T, world int, epoch uint32, iters int, spec RunSpec,
	assignFn func(rank int, a *RankAssignment), hooksFn func(rank int, tr comm.Transport, h *RunHooks)) ([]*RankOutcome, []error) {
	t.Helper()
	addrs, err := comm.LoopbackAddrs(world)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Strategy == "" {
		spec = eqSpec(StrategyWZB2, world, iters, 12)
		spec.Elastic = ElasticShrink
		spec.Deadlines = rankDeadlines()
	}
	outcomes := make([]*RankOutcome, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			a := RankAssignment{Epoch: epoch, Rank: r, World: world, SeedFrom: -1}
			if assignFn != nil {
				assignFn(r, &a)
			}
			tr, err := comm.DialTCPOpts(r, addrs, spec.TCPOptions(epoch))
			if err != nil {
				errs[r] = err
				return
			}
			defer CloseMesh(tr, spec.Deadlines)
			var hooks RunHooks
			if hooksFn != nil {
				hooksFn(r, tr, &hooks)
			}
			outcomes[r], errs[r] = RunRank(a, tr, spec, hooks)
		}(r)
	}
	wg.Wait()
	return outcomes, errs
}

// inprocSnapshotAt trains an in-process WZB2 cluster for `cut` iterations
// and captures the coordinated snapshot — the seed state the spare tests
// hand to a fresh incarnation.
func inprocSnapshotAt(t *testing.T, world, cut, iters int) *checkpoint.Snapshot {
	t.Helper()
	cluster := comm.NewCluster(world)
	defer cluster.Close()
	batchesFn := eqBatches(iters, 12)
	trainers := make([]Trainer, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := New(StrategyWZB2, cluster.Transport(r), eqCfg(), buddyOpts())
			if err != nil {
				errs[r] = err
				return
			}
			trainers[r] = tr
			for i := 0; i < cut; i++ {
				if _, err := tr.TrainIteration(batchesFn(i)); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("oracle rank %d: %v", r, err)
		}
	}
	snap, err := CaptureSnapshot(trainers, cut)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// A fault-free cross-process run: every rank completes, all agree on the
// final weights bit-for-bit, and the trajectory matches the in-process
// cluster of the same world size exactly.
func TestRunRankPlainTCPMatchesInproc(t *testing.T) {
	const world, iters = 3, 4
	base := runtime.NumGoroutine()
	outcomes, errs := runIncarnation(t, world, 1, iters, RunSpec{}, nil, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	ref, err := RunCluster(StrategyWZB2, world, eqCfg(), buddyOpts(), iters, eqBatches(iters, 12))
	if err != nil {
		t.Fatal(err)
	}
	for r, o := range outcomes {
		if !o.Done {
			t.Fatalf("rank %d did not complete: %+v", r, o)
		}
		if o.WeightsHash != outcomes[0].WeightsHash {
			t.Fatalf("rank %d weight hash %x != rank 0's %x", r, o.WeightsHash, outcomes[0].WeightsHash)
		}
		bitIdentical(t, "cross-process vs in-proc", o.Losses, ref.Losses, o.Weights, ref.Weights)
	}
	waitPipelineGoroutines(t, base)
}

// Kill one rank mid-run: the survivors must agree on the dead set over the
// wire, harvest identical repair snapshots from buddy replicas, and a
// shrunken next incarnation must continue bit-identically to a fresh
// in-process cluster started from the same harvested state.
func TestRunRankElasticShrinkRecoveryTCP(t *testing.T) {
	const world, iters = 3, 6
	base := runtime.NumGoroutine()

	outcomes, errs := runIncarnation(t, world, 1, iters, RunSpec{}, nil, func(r int, tr comm.Transport, h *RunHooks) {
		if r == 1 {
			h.OnIteration = func(iter int, loss float64) {
				if iter == 2 {
					tr.Close()
				}
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d returned hard error: %v", r, err)
		}
	}
	if !outcomes[1].Aborted {
		t.Fatalf("killed rank reported %+v, want abort", outcomes[1])
	}
	for _, r := range []int{0, 2} {
		o := outcomes[r]
		if o.Aborted || o.Snapshot == nil {
			t.Fatalf("survivor %d failed to harvest: %+v (reason %q)", r, o, o.Reason)
		}
		if len(o.Membership.Dead) != 1 || o.Membership.Dead[0] != 1 {
			t.Fatalf("survivor %d agreed dead set %v, want [1]", r, o.Membership.Dead)
		}
		if o.Iter < 2 || o.Iter >= iters {
			t.Fatalf("survivor %d repair cut %d, want within [2, %d)", r, o.Iter, iters)
		}
	}
	if a, b := outcomes[0], outcomes[2]; a.Iter != b.Iter ||
		HashWeights(a.Snapshot.Weights) != HashWeights(b.Snapshot.Weights) {
		t.Fatalf("survivors harvested divergent snapshots: cut %d vs %d", a.Iter, b.Iter)
	}
	cut := outcomes[0].Iter
	snap := outcomes[0].Snapshot

	// Next incarnation: shrink to 2 survivors at a new epoch on a fresh
	// mesh, both seeded from the snapshot they already hold.
	out2, errs2 := runIncarnation(t, 2, 2, iters, RunSpec{}, func(r int, a *RankAssignment) {
		a.StartIter = cut
	}, func(r int, tr comm.Transport, h *RunHooks) {
		h.Snapshot = snap
	})
	for r, err := range errs2 {
		if err != nil {
			t.Fatalf("shrunken rank %d: %v", r, err)
		}
	}
	spec := eqSpec(StrategyWZB2, 2, iters, 12)
	spec.Elastic = ElasticShrink
	ref, err := RunResilient(spec, RunHooks{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	for r, o := range out2 {
		if !o.Done {
			t.Fatalf("shrunken rank %d did not complete: %+v (reason %q)", r, o, o.Reason)
		}
		bitIdentical(t, "post-shrink vs in-proc from snapshot",
			o.Losses[cut:], ref.Losses[cut:], o.Weights, ref.Weights)
	}
	waitPipelineGoroutines(t, base)
}

// Spare admission over the wire: the next incarnation keeps the world size
// by seeding a fresh rank (which never heard the old mesh) from rank 0's
// snapshot broadcast, then training continues bit-identically to the
// uninterrupted same-world run.
func TestRunRankSpareSeedMembershipTCP(t *testing.T) {
	const world, iters = 3, 6
	const cut = 3
	base := runtime.NumGoroutine()
	snap := inprocSnapshotAt(t, world, cut, iters)

	// Ranks 0 and 1 are survivors holding the snapshot; rank 2 plays the
	// admitted spare: no snapshot, seeded over the new mesh by rank 0.
	outcomes, errs := runIncarnation(t, world, 2, iters, RunSpec{}, func(r int, a *RankAssignment) {
		a.StartIter = cut
		a.SeedFrom = 0
		a.SeedTo = []int{2}
	}, func(r int, tr comm.Transport, h *RunHooks) {
		if r != 2 {
			h.Snapshot = snap
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	ref, err := RunCluster(StrategyWZB2, world, eqCfg(), buddyOpts(), iters, eqBatches(iters, 12))
	if err != nil {
		t.Fatal(err)
	}
	for r, o := range outcomes {
		if !o.Done {
			t.Fatalf("rank %d did not complete: %+v (reason %q)", r, o, o.Reason)
		}
		bitIdentical(t, "spare-seeded vs uninterrupted",
			o.Losses[cut:], ref.Losses[cut:], o.Weights, ref.Weights)
	}
	waitPipelineGoroutines(t, base)
}

// The control plane's exchange sends one buffer, a reference per peer,
// and gives back every reference a failed send leaves unsent: with rank 2
// dead, rank 0's send to rank 1 lands, the send to rank 2 fails, and the
// reference meant for rank 3 is released, so the buffer's last release
// poisons it (TestMain) instead of leaking it.
func TestRunRankExchangeGivesBackUnsentReferences(t *testing.T) {
	cl := comm.NewCluster(4)
	defer cl.Close()
	cl.Transport(2).Close()
	tag := Tag{Kind: comm.KindCtl, A: barrierTagBase}
	payload := comm.GetBuf(2)
	payload[0], payload[1] = comm.IntWord(7), comm.IntWord(-7)
	err := exchange(RankAssignment{Rank: 0, World: 4}, cl.Transport(0), rankDeadlines(), tag, []int{0, 1, 2, 3}, payload,
		func(r int, _ []float32) error {
			t.Errorf("rank %d's payload arrived", r)
			return nil
		})
	released := math.IsNaN(float64(payload[0]))
	if r, ok := comm.DeadPeer(err); !ok || r != 2 {
		t.Fatalf("exchange with rank 2 dead returned %v", err)
	}
	if !released {
		t.Error("the references the failed send left unsent were not given back")
	}
	got, err := cl.Transport(1).RecvTimeout(0, tag, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || comm.WordInt(got[0]) != 7 || comm.WordInt(got[1]) != -7 {
		t.Errorf("rank 1 received %v", got)
	}
	comm.Release(got)
}

// A rank that dies between iterations (no training traffic in flight) is
// still detected at the per-iteration loss barrier — and a 2-rank world
// losing one rank must abort on lost quorum rather than continue as a
// half-brain.
func TestRunRankBarrierDetectsPeerDeath(t *testing.T) {
	const world, iters = 2, 8
	base := runtime.NumGoroutine()
	outcomes, errs := runIncarnation(t, world, 1, iters, RunSpec{}, nil, func(r int, tr comm.Transport, h *RunHooks) {
		if r == 1 {
			h.OnIteration = func(iter int, loss float64) {
				if iter == 3 {
					tr.Close()
				}
			}
		}
	})
	if errs[0] != nil {
		t.Fatalf("survivor: %v", errs[0])
	}
	o := outcomes[0]
	if !o.Aborted {
		t.Fatalf("survivor of 2-rank split continued: %+v", o)
	}
	if o.Reason != "no-quorum" {
		t.Fatalf("survivor aborted with %q, want no-quorum", o.Reason)
	}
	waitPipelineGoroutines(t, base)
}

// A detected integrity violation over TCP: the detecting rank's own state
// is suspect, so it closes its endpoint and aborts as dead, and the
// survivors agree on dead = [it] and harvest its shard from the buddy
// replica. (Offering itself as evidence instead stalled the repair until
// its own agreement timed out: AgreeOverTransport drops self-evidence.)
func TestRunRankIntegrityFlipRepairTCP(t *testing.T) {
	const world, iters = 3, 6
	base := runtime.NumGoroutine()
	inj := NewBitFlipInjector([]BitFlipEvent{
		{Rank: 1, Iter: 3, Site: FlipMomentV, Word: 4242, Bit: 29},
	})
	spec := eqSpec(StrategyWZB2, world, iters, 12)
	spec.Elastic = ElasticShrink
	spec.Deadlines = rankDeadlines()
	spec.Options = integrityOpts()
	spec.Options.BitFlip = inj
	outcomes, errs := runIncarnation(t, world, 1, iters, spec, nil, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d returned hard error: %v", r, err)
		}
	}
	if inj.Fired() != 1 {
		t.Fatal("scheduled flip never fired")
	}
	if o := outcomes[1]; !o.Aborted || !strings.HasPrefix(o.Reason, "dead: ") {
		t.Fatalf("detecting rank reported %+v (reason %q), want an abort as dead", o, o.Reason)
	}
	for _, r := range []int{0, 2} {
		o := outcomes[r]
		if o.Aborted || o.Snapshot == nil {
			t.Fatalf("survivor %d failed to harvest: %+v (reason %q)", r, o, o.Reason)
		}
		if len(o.Membership.Dead) != 1 || o.Membership.Dead[0] != 1 {
			t.Fatalf("survivor %d agreed dead set %v, want [1]", r, o.Membership.Dead)
		}
	}
	if a, b := outcomes[0], outcomes[2]; a.Iter != b.Iter ||
		HashWeights(a.Snapshot.Weights) != HashWeights(b.Snapshot.Weights) {
		t.Fatalf("survivors harvested divergent snapshots: cut %d vs %d", a.Iter, b.Iter)
	}
	waitPipelineGoroutines(t, base)
}

// RunRank checkpoints after the final iteration too, as RunResilient does:
// the file rank 0 leaves is the finished run's full state, bit-identical to
// the in-process loop's last checkpoint — not the last periodic one.
func TestRunRankSavesFinalCheckpoint(t *testing.T) {
	const world, iters = 2, 4
	path := filepath.Join(t.TempDir(), "rank.wpck")
	spec := eqSpec(StrategyWZB2, world, iters, 12)
	spec.Elastic = ElasticShrink
	spec.Deadlines = rankDeadlines()
	spec.CheckpointEvery = 2
	spec.CheckpointPath = path
	outcomes, errs := runIncarnation(t, world, 1, iters, spec, nil, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !outcomes[r].Done {
			t.Fatalf("rank %d did not complete: %+v", r, outcomes[r])
		}
	}
	got, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != iters {
		t.Fatalf("checkpoint on disk holds step %d, want the final iteration's (%d)", got.Step, iters)
	}
	spec = eqSpec(StrategyWZB2, world, iters, 12)
	spec.CheckpointEvery = 2
	ref, err := RunResilient(spec, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Checkpoint
	for _, sec := range []string{"adam.m", "adam.v", "adam.step"} {
		if !slices.Equal(got.Sections[sec], want.Sections[sec]) {
			t.Fatalf("section %s differs from the in-process loop's final checkpoint", sec)
		}
	}
	if !slices.Equal(got.Weights, want.Weights) {
		t.Fatal("weights differ from the in-process loop's final checkpoint")
	}
}

// A rank parked between iterations (RunRank marks it idle through the loss
// barrier, checkpoints and the final gather) must never be flagged by the
// straggler watchdog, however long the barrier, while a genuinely silent
// active rank still is.
func TestWatchdogBarrierBeaconExempt(t *testing.T) {
	board := NewProgressBoard(2)
	var mu sync.Mutex
	flagged := map[int]bool{}
	wd := startWatchdog(WatchdogConfig{
		Interval: 5 * time.Millisecond,
		MinStall: 60 * time.Millisecond,
		Multiple: 2,
		OnStraggler: func(rep StragglerReport) {
			mu.Lock()
			flagged[rep.Rank] = true
			mu.Unlock()
		},
	}, board, func(int) {})
	defer wd.Stop()
	wd.NoteIteration(10 * time.Millisecond) // arm the detector

	board.SetIdle(0, false) // active, then silent: a true straggler
	board.SetIdle(1, false)
	board.SetIdle(1, true)             // into a long barrier
	time.Sleep(300 * time.Millisecond) // off the wire, beating nothing
	mu.Lock()
	defer mu.Unlock()
	if !flagged[0] {
		t.Error("silent active rank was never flagged; watchdog is blind")
	}
	if flagged[1] {
		t.Error("barrier-parked beaconing rank was flagged as a straggler")
	}
}
