package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weipipe/internal/comm"
)

// The elastic contract: a rank killed mid-run is repaired at the iteration
// barrier from the survivors' buddy replicas — no checkpoint file is read —
// and training continues at the new world size on exactly the trajectory a
// fresh cluster of that size would produce from the repaired state. The
// buddy maintenance that makes this possible must be invisible on the
// critical path: identical losses, weights and KindWeight/KindGrad message
// counts whether it is on or off.

// buddySendsPerIteration measures rank 1's per-iteration send count with
// buddy replication active (an elastic policy forces it on), so crash
// schedules in elastic tests land in the intended iteration.
func buddySendsPerIteration(t *testing.T, p, iters, n int) int64 {
	t.Helper()
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.Elastic = ElasticShrink
	return rankOneSends(t, spec)
}

// rankOneSends measures rank 1's per-iteration send count in a
// fault-free run of spec.
func rankOneSends(t *testing.T, spec RunSpec) int64 {
	t.Helper()
	var probe *comm.FaultTransport
	_, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if rank == 1 {
				probe = comm.NewFaultTransport(tr, comm.FaultConfig{})
				return probe
			}
			return tr
		}),
	})
	if err != nil {
		t.Fatalf("buddy probe run: %v", err)
	}
	return perIteration(t, probe, spec.World, spec.Iters)
}

// Buddy replication must not perturb training (bit-identical losses and
// weights) and must not add a single message to the KindWeight/KindGrad
// critical path — its traffic rides exclusively on KindBuddy. The elastic
// driver is what turns it on.
func TestBuddyReplicationOffCriticalPath(t *testing.T) {
	const p, iters, n = 3, 3, 6
	off, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.Elastic = ElasticShrink
	on, err := RunResilient(spec, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "buddy on vs off", on.Losses, off.Losses, on.Weights, off.Weights)
	for r := 0; r < p; r++ {
		for _, k := range []comm.Kind{comm.KindWeight, comm.KindGrad} {
			if got, want := on.Comm[r].SentMsgs(k), off.Comm[r].SentMsgs(k); got != want {
				t.Errorf("rank %d: %d %v messages with buddy on, %d off — buddy leaked onto the critical path",
					r, got, k, want)
			}
		}
	}
	if off.TotalComm().SentMsgs(comm.KindBuddy) != 0 {
		t.Error("buddy-off run sent KindBuddy traffic")
	}
	if on.TotalComm().SentMsgs(comm.KindBuddy) == 0 {
		t.Error("buddy-on run sent no KindBuddy traffic; replication was a no-op")
	}
}

// TestBuddyShadowMatchesOwner: after every iteration each rank's buddy
// shadow — weights, both moments and step count — equals its successor's
// owned chunk state bit for bit, on every WeiPipe strategy at p 2…4, in
// process and over TCP, on f32 and bf16 belts. The owner sends its buddy the
// gradient it steps on, so the replayed step cannot drift from the real one.
func TestBuddyShadowMatchesOwner(t *testing.T) {
	const iters = 3
	for _, overTCP := range []bool{false, true} {
		for _, codec := range []comm.CodecFunc{nil, comm.BeltBF16} {
			for _, s := range beltStrategies {
				for p := 2; p <= 4; p++ {
					name := fmt.Sprintf("%s p=%d tcp=%v bf16=%v", s, p, overTCP, codec != nil)
					var trs []comm.Transport
					if overTCP {
						trs = dialMesh(t, p, comm.TCPOptions{Codec: codec})
					} else {
						trs = comm.NewClusterCodec(p, codec).Transports()
					}
					opts := eqOpts()
					opts.buddy = true
					opts.GroupSize = ringGroupSize(p)
					trainers := make([]Trainer, p)
					for r := range trainers {
						var err error
						if trainers[r], err = New(s, trs[r], eqCfg(), opts); err != nil {
							t.Fatal(err)
						}
					}
					batches := eqBatches(iters, 2*p)
					for it := 0; it < iters; it++ {
						trainAll(t, trainers, batches(it))
						for r, tr := range trainers {
							owner, buddy := trainers[(r+1)%p].(*WeiPipe), tr.(*WeiPipe)
							want, err := stateAt(owner.master(), it+1, owner.ownerIters)
							if err != nil {
								t.Fatal(err)
							}
							got, err := stateAt(buddy.shadow, it+1, buddy.shadowIters)
							if err != nil {
								t.Fatal(err)
							}
							if got.Step != want.Step || !bitsEqual(got.W, want.W) || !bitsEqual(got.M, want.M) || !bitsEqual(got.V, want.V) {
								t.Errorf("%s iteration %d: rank %d's shadow (step %d) differs from rank %d's owned state (step %d)",
									name, it, r, got.Step, (r+1)%p, want.Step)
							}
						}
					}
					for _, tr := range trs {
						tr.Close()
					}
				}
			}
		}
	}
}

// pieceState is a copy of a piece's trainer state.
type pieceState struct {
	W, M, V []float32
	Step    int
}

// stateAt copies out piece p as of completed iteration atIter (piece.at).
func stateAt(p *piece, atIter, iters int) (pieceState, error) {
	q, err := p.at(atIter, iters)
	if err != nil {
		return pieceState{}, err
	}
	st := pieceState{W: slices.Clone(q.w), M: make([]float32, len(q.w)), V: make([]float32, len(q.w))}
	st.Step = q.opt.CopyStateInto(st.M, st.V)
	return st, nil
}

// bitsEqual reports whether a and b hold the same float32 bits.
func bitsEqual(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// PlanRepair admits spares while they last, drops admissions until the ring
// is valid, and reports no repair when no world is.
func TestElasticPlanRepair(t *testing.T) {
	cases := []struct {
		survivors, dead, spares, modules, mb int
		admit                                int
		ok                                   bool
	}{
		{2, 1, 1, 10, 6, 1, true},  // spare keeps the world at 3
		{2, 1, 0, 10, 6, 0, true},  // no spare: shrink to 2
		{3, 1, 1, 10, 6, 0, true},  // 4 does not divide 6: shrink to 3
		{2, 2, 2, 3, 6, 1, true},   // 4 > 3 modules: admit one
		{3, 1, 0, 10, 4, 0, false}, // 3 does not divide 4: checkpoint
		{0, 2, 2, 10, 6, 0, false}, // nobody survived
	}
	for _, c := range cases {
		admit, ok := PlanRepair(c.survivors, c.dead, c.spares, c.modules, c.mb)
		if admit != c.admit || ok != c.ok {
			t.Errorf("PlanRepair(%d, %d, %d, %d, %d) = %d, %v; want %d, %v",
				c.survivors, c.dead, c.spares, c.modules, c.mb, admit, ok, c.admit, c.ok)
		}
	}
}

// chaosTCPFactory builds per-attempt TCP clusters with seeded frame-level
// chaos, at whatever world size the elastic runner asks for.
func chaosTCPFactory(tcpOpts comm.TCPOptions) func(attempt, size int) ([]comm.Transport, error) {
	return func(attempt, size int) ([]comm.Transport, error) {
		addrs, err := comm.LoopbackAddrs(size)
		if err != nil {
			return nil, err
		}
		out := make([]comm.Transport, size)
		errs := make([]error, size)
		var wg sync.WaitGroup
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				tr, err := comm.DialTCPOpts(r, addrs, tcpOpts)
				if err != nil {
					errs[r] = err
					return
				}
				out[r] = tr
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				for _, tr := range out {
					if tr != nil {
						tr.Close()
					}
				}
				return nil, err
			}
		}
		return out, nil
	}
}

// The headline elastic test: WZB2 on 3 ranks over real TCP with frame-level
// chaos, one rank killed mid-iteration, repaired by shrinking to 2 ranks
// from buddy replicas — with checkpointing disabled, so the repair provably
// reads nothing from disk. From the repair cut on, losses and final weights
// must be bit-identical to a fresh 2-rank cluster started from the repaired
// state.
func TestElasticShrinkRepairWZB2ChaosTCP(t *testing.T) {
	const p, iters, n = 3, 6, 6
	perIter := buddySendsPerIteration(t, p, iters, n)
	base := runtime.NumGoroutine()

	tcpOpts := comm.TCPOptions{
		Deadlines: comm.Deadlines{Dial: 10 * time.Second, Heartbeat: 20 * time.Millisecond, PeerDead: 2 * time.Second, Retransmit: 40 * time.Millisecond},
		Chaos: &comm.ChaosConfig{
			Seed:      2025,
			Drop:      0.06,
			Dup:       0.06,
			Reorder:   0.05,
			Corrupt:   0.03,
			DelayProb: 0.05,
			MaxDelay:  2 * time.Millisecond,
		},
	}

	var crashed *comm.FaultTransport
	var ev RepairEvent
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.MaxRestarts = 1
	spec.Elastic = ElasticShrink
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(chaosTCPFactory(tcpOpts), crashRankOne(&crashed, perIter*3+perIter/2)),
		OnRepair:   func(e RepairEvent) { ev = e },
	})
	if err != nil {
		t.Fatalf("elastic chaos run failed: %v", err)
	}
	if !crashed.Crashed() {
		t.Fatal("scheduled rank kill never fired; the test proved nothing")
	}
	if len(res.Repairs) != 1 {
		t.Fatalf("expected exactly one repair, got %d", len(res.Repairs))
	}
	if ev.OldSize != 3 || ev.NewSize != 2 || ev.Policy != ElasticShrink {
		t.Fatalf("repair %d->%d policy %v, want 3->2 shrink", ev.OldSize, ev.NewSize, ev.Policy)
	}
	if len(ev.Dead) != 1 || ev.Dead[0] != 1 {
		t.Fatalf("dead set %v, want [1]", ev.Dead)
	}
	// The crash struck mid-iteration 3; the repair cut must keep every
	// completed iteration (losing at most the one in flight).
	if ev.Iteration < 3 || ev.Iteration >= iters {
		t.Fatalf("repair cut at iteration %d; survivors had completed at least 3", ev.Iteration)
	}

	// Reference: a fresh 2-rank cluster started from the harvested snapshot.
	spec = eqSpec(StrategyWZB2, ev.NewSize, iters, n)
	spec.Elastic = ElasticShrink
	ref, err := RunResilient(spec, RunHooks{Snapshot: ev.Snapshot})
	if err != nil {
		t.Fatalf("reference run from repair snapshot: %v", err)
	}
	bitIdentical(t, "shrink repair vs fresh cluster",
		res.Losses[ev.Iteration:], ref.Losses[ev.Iteration:], res.Weights, ref.Weights)

	// The chaos must actually have exercised the reliability machinery.
	f := res.TotalComm().TotalFaults()
	if f.Retransmits+f.DupFrames+f.CorruptFrames == 0 {
		t.Error("chaos run recorded no transport faults; injection was a no-op")
	}
	waitPipelineGoroutines(t, base)
}

// TestElasticShrinkGroupedFallsBackFlat: wzb2g at p=4 in groups of 2 loses
// rank 1 and shrinks to 3 ranks, which groups of 2 do not tile, so the
// rebuilt ring runs the flat belt's rows (order.Wiring at m = 1). From the
// repair cut on, losses and final weights are bit-identical to a fresh
// 3-rank wzb2 run started from the harvested snapshot.
func TestElasticShrinkGroupedFallsBackFlat(t *testing.T) {
	const p, iters, n = 4, 6, 12
	spec := eqSpec(StrategyWZB2G, p, iters, n)
	spec.Options.GroupSize = 2
	spec.Elastic = ElasticShrink
	perIter := rankOneSends(t, spec)
	base := runtime.NumGoroutine()

	var crashed *comm.FaultTransport
	var ev RepairEvent
	spec.MaxRestarts = 1
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, crashRankOne(&crashed, perIter*3+perIter/2)),
		OnRepair:   func(e RepairEvent) { ev = e },
	})
	if err != nil {
		t.Fatalf("elastic grouped run failed: %v", err)
	}
	if !crashed.Crashed() {
		t.Fatal("scheduled rank kill never fired; the test proved nothing")
	}
	if len(res.Repairs) != 1 || ev.Policy != ElasticShrink || ev.OldSize != p || ev.NewSize != p-1 {
		t.Fatalf("repair %+v, want one %d->%d shrink", ev, p, p-1)
	}
	if len(ev.Dead) != 1 || ev.Dead[0] != 1 {
		t.Fatalf("dead set %v, want [1]", ev.Dead)
	}
	if ev.Iteration < 3 || ev.Iteration >= iters {
		t.Fatalf("repair cut at iteration %d; survivors had completed at least 3", ev.Iteration)
	}

	ref := eqSpec(StrategyWZB2, ev.NewSize, iters, n)
	ref.Elastic = ElasticShrink
	want, err := RunResilient(ref, RunHooks{Snapshot: ev.Snapshot})
	if err != nil {
		t.Fatalf("reference run from repair snapshot: %v", err)
	}
	bitIdentical(t, "grouped shrink repair vs fresh flat cluster",
		res.Losses[ev.Iteration:], want.Losses[ev.Iteration:], res.Weights, want.Weights)
	waitPipelineGoroutines(t, base)
}

// crashRankOne makes rank 1 of attempt 0 crash at its CrashAtSend-th send,
// recording the fault transport in *crashed.
func crashRankOne(crashed **comm.FaultTransport, atSend int64) func(attempt, rank int, tr comm.Transport) comm.Transport {
	return func(attempt, rank int, tr comm.Transport) comm.Transport {
		if attempt == 0 && rank == 1 {
			*crashed = comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: atSend})
			return *crashed
		}
		return tr
	}
}

// Spare admission: the world size is preserved by seeding a standby rank
// from the harvested snapshot, again without reading any checkpoint.
func TestElasticSpareRepairInproc(t *testing.T) {
	const p, iters, n = 3, 6, 6
	perIter := buddySendsPerIteration(t, p, iters, n)
	base := runtime.NumGoroutine()

	var crashed *comm.FaultTransport
	var ev RepairEvent
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.MaxRestarts = 1
	spec.Elastic = ElasticSpare
	spec.Spares = 1
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, crashRankOne(&crashed, perIter*2+perIter/2)),
		OnRepair:   func(e RepairEvent) { ev = e },
	})
	if err != nil {
		t.Fatalf("spare repair run failed: %v", err)
	}
	if !crashed.Crashed() {
		t.Fatal("scheduled rank kill never fired")
	}
	if len(res.Repairs) != 1 || ev.Policy != ElasticSpare || ev.OldSize != p || ev.NewSize != p {
		t.Fatalf("repair %+v, want one %d->%d spare admission", ev, p, p)
	}
	if len(ev.Dead) != 1 || ev.Dead[0] != 1 {
		t.Fatalf("dead set %v, want [1]", ev.Dead)
	}

	spec = eqSpec(StrategyWZB2, ev.NewSize, iters, n)
	spec.Elastic = ElasticSpare
	ref, err := RunResilient(spec, RunHooks{Snapshot: ev.Snapshot})
	if err != nil {
		t.Fatalf("reference run from repair snapshot: %v", err)
	}
	bitIdentical(t, "spare repair vs fresh cluster",
		res.Losses[ev.Iteration:], ref.Losses[ev.Iteration:], res.Weights, ref.Weights)
	waitPipelineGoroutines(t, base)
}

// A 2-rank ring that loses a rank keeps 1 of 2: no quorum, in process as
// across processes, so a spare is never admitted from a lone survivor's
// word. The run falls back to checkpoint restart and still lands on the
// uninterrupted trajectory.
func TestElasticTwoRankNoQuorumFallsBackToCheckpoint(t *testing.T) {
	const p, iters, n = 2, 6, 4
	perIter := buddySendsPerIteration(t, p, iters, n)
	base := runtime.NumGoroutine()
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	var crashed *comm.FaultTransport
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.CheckpointEvery = 2
	spec.MaxRestarts = 1
	spec.Elastic = ElasticSpare
	spec.Spares = 1
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, crashRankOne(&crashed, perIter*2+perIter/2)),
		OnRepair:   func(e RepairEvent) { t.Errorf("repair without quorum: %+v", e) },
	})
	if err != nil {
		t.Fatalf("checkpoint fallback failed: %v", err)
	}
	if !crashed.Crashed() {
		t.Fatal("scheduled rank kill never fired")
	}
	if len(res.Repairs) != 0 {
		t.Fatalf("%d repairs, want the checkpoint fallback", len(res.Repairs))
	}
	bitIdentical(t, "2-rank checkpoint fallback", res.Losses, ref.Losses, res.Weights, ref.Weights)
	waitPipelineGoroutines(t, base)
}

// killSwitch fails every send and receive with ErrCrashed once armed — a
// deterministic way to kill several ranks at the same iteration barrier,
// which CrashAtSend cannot guarantee (the first crash may unblock the
// second rank into a non-crash error first). All three sends are
// intercepted, as FaultTransport counts them: belt hops donate and relay.
type killSwitch struct {
	comm.Transport
	dead *atomic.Bool
}

func (k *killSwitch) Send(dst int, tag comm.Tag, data []float32) error {
	if k.dead.Load() {
		return comm.ErrCrashed
	}
	return k.Transport.Send(dst, tag, data)
}

func (k *killSwitch) SendOwned(dst int, tag comm.Tag, payload []float32) error {
	if k.dead.Load() {
		comm.Release(payload)
		return comm.ErrCrashed
	}
	return k.Transport.SendOwned(dst, tag, payload)
}

func (k *killSwitch) Forward(dst int, tag comm.Tag, payload []float32) error {
	if k.dead.Load() {
		comm.Release(payload)
		return comm.ErrCrashed
	}
	return k.Transport.Forward(dst, tag, payload)
}

func (k *killSwitch) Recv(src int, tag comm.Tag) ([]float32, error) {
	if k.dead.Load() {
		return nil, comm.ErrCrashed
	}
	return k.Transport.Recv(src, tag)
}

func (k *killSwitch) RecvTimeout(src int, tag comm.Tag, d time.Duration) ([]float32, error) {
	if k.dead.Load() {
		return nil, comm.ErrCrashed
	}
	return k.Transport.RecvTimeout(src, tag, d)
}

// When a chunk's owner AND its buddy die in the same iteration, elastic
// repair is impossible; the run must fall back to checkpoint restart at the
// original world size and still land on the reference trajectory.
func TestElasticDoubleDeathFallsBackToCheckpoint(t *testing.T) {
	const p, iters, n = 3, 6, 6
	base := runtime.NumGoroutine()
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}

	// Chunk 0 is owned by rank 2 and shadowed by rank 1: killing both at
	// the iteration-3 barrier makes chunk 0 unrecoverable from replicas.
	var dead atomic.Bool
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.CheckpointEvery = 2
	spec.MaxRestarts = 1
	spec.Elastic = ElasticShrink
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if attempt == 0 && (rank == 1 || rank == 2) {
				return &killSwitch{Transport: tr, dead: &dead}
			}
			return tr
		}),
		OnIteration: func(iter int, loss float64) {
			if iter == 2 {
				dead.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatalf("double-death run failed to recover: %v", err)
	}
	if len(res.Repairs) != 0 {
		t.Fatalf("repair reported despite owner+buddy death: %+v", res.Repairs)
	}
	bitIdentical(t, "double-death checkpoint fallback", res.Losses, ref.Losses, res.Weights, ref.Weights)
	waitPipelineGoroutines(t, base)
}
