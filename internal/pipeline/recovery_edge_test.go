package pipeline

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/model"
)

// Edge cases of the restart loop: a failure before any state exists, a
// failure in the iteration right after a checkpoint barrier, a failure
// budget that runs out, and the loop's two seeds — its own last checkpoint
// and a weight-only snapshot.

// A crash on the very first send — before any iteration completed, with no
// checkpoint and no repair state — must restart from scratch and still land
// on the reference trajectory.
func TestRepairAtIterationZeroRestartsFromScratch(t *testing.T) {
	const p, iters, n = 2, 3, 4
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	var crashed *comm.FaultTransport
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.MaxRestarts = 1
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if attempt == 0 && rank == 1 {
				crashed = comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: 1})
				return crashed
			}
			return tr
		}),
	})
	if err != nil {
		t.Fatalf("iteration-0 recovery failed: %v", err)
	}
	if !crashed.Crashed() {
		t.Fatal("scheduled crash never fired")
	}
	bitIdentical(t, "iteration-0 restart", res.Losses, ref.Losses, res.Weights, ref.Weights)
}

// A crash on the first send after a checkpoint barrier: the checkpoint is
// brand new, the replay window is a single iteration prefix, and the resumed
// run must not double-apply anything.
func TestRepairRightAfterCheckpointBarrier(t *testing.T) {
	const p, iters, n = 2, 6, 4
	perIter := sendsPerIteration(t, p, iters, n)
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	var crashed *comm.FaultTransport
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.CheckpointEvery = 2
	spec.MaxRestarts = 1
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if attempt == 0 && rank == 1 {
				// First send of iteration 2, immediately after the
				// checkpoint taken at the iteration-2 barrier (whose
				// gather sends one share to each peer).
				crashed = comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: perIter*2 + int64(p-1) + 1})
				return crashed
			}
			return tr
		}),
	})
	if err != nil {
		t.Fatalf("post-barrier recovery failed: %v", err)
	}
	if !crashed.Crashed() {
		t.Fatal("scheduled crash never fired")
	}
	bitIdentical(t, "post-barrier restart", res.Losses, ref.Losses, res.Weights, ref.Weights)
}

// When every attempt crashes, the restart budget must be exhausted cleanly:
// a typed error naming the budget, no hang, no leaked goroutines.
func TestRepairBudgetExhaustion(t *testing.T) {
	const p, iters, n = 2, 4, 4
	base := runtime.NumGoroutine()
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.MaxRestarts = 2
	_, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if rank == 0 {
				return comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: 5})
			}
			return tr
		}),
	})
	if err == nil {
		t.Fatal("run with a crash on every attempt reported success")
	}
	if !strings.Contains(err.Error(), "failed after 2 restarts") {
		t.Fatalf("error %q does not name the exhausted restart budget", err)
	}
	waitPipelineGoroutines(t, base)
}

// The loop checkpoints the final iteration too and hands it back: a run
// continued from ClusterResult.Checkpoint is the uninterrupted run.
func TestFinalIterationCheckpointContinues(t *testing.T) {
	const p, iters, cut, n = 2, 5, 3, 4
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	spec := eqSpec(StrategyWZB2, p, cut, n)
	spec.CheckpointEvery = 2
	first, err := RunResilient(spec, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Checkpoint == nil || first.Checkpoint.Step != cut {
		t.Fatalf("last checkpoint %+v, want the final iteration's (%d)", first.Checkpoint, cut)
	}
	rest, err := RunResilient(eqSpec(StrategyWZB2, p, iters, n), RunHooks{Snapshot: first.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "continued from the final checkpoint",
		rest.Losses[cut:], ref.Losses[cut:], rest.Weights, ref.Weights)
}

// A weight-only snapshot seeds the weights alone — iteration 0, a fresh
// optimizer — so seeding another model's weights is that model's run. The
// buddy shadows must hold the seeded weights too: a spare rebuilt from them
// after a crash in iteration 1 still lands on the reference.
func TestWeightOnlySnapshotSeedsBuddies(t *testing.T) {
	const p, iters, n = 3, 4, 6
	other := eqCfg()
	other.Seed = 99
	ref, err := RunCluster(StrategyWZB2, p, other, eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	seed := checkpoint.FromModel(model.Build(other))
	seed.Step = 7 // a weight-only snapshot's counter is not a resume point
	perIter := buddySendsPerIteration(t, p, iters, n)
	var crashed *comm.FaultTransport
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.MaxRestarts = 1
	spec.Elastic = ElasticSpare
	spec.Spares = 1
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, crashRankOne(&crashed, perIter+perIter/2)),
		Snapshot:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !crashed.Crashed() || len(res.Repairs) != 1 {
		t.Fatalf("crashed=%v repairs=%d: the buddy path was not exercised", crashed.Crashed(), len(res.Repairs))
	}
	bitIdentical(t, "weight-only seed", res.Losses, ref.Losses, res.Weights, ref.Weights)
}

// finalGatherCrash kills its rank in the middle of the final-weights
// gather: it waits until it has received rank 0's and rank 1's shares —
// both sent, so rank 0 can finish — and dies on sending its own to rank 1,
// after the one to rank 0 went out.
type finalGatherCrash struct {
	comm.Transport
	final Tag
}

func (f *finalGatherCrash) Send(dst int, tag Tag, data []float32) error {
	if tag != f.final || dst != 1 {
		return f.Transport.Send(dst, tag, data)
	}
	for _, src := range []int{0, 1} {
		got, err := f.Transport.RecvTimeout(src, tag, time.Minute)
		if err != nil {
			return err
		}
		comm.Release(got)
	}
	f.Transport.Close()
	return comm.ErrCrashed
}

// A rank that finished is no help to a repair, and once the attempt has
// failed the supervisor closes its endpoint: the survivor stuck in the final
// gather then suspects it at once instead of waiting out a full agreement
// round. Rank 0 completes, rank 2 dies mid-gather, rank 1 cannot reach
// quorum alone, and the run restarts from scratch onto the reference.
func TestRepairClosesFinishedRankAfterFailure(t *testing.T) {
	const p, iters, n = 3, 2, 6
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	var crashed atomic.Bool
	start := time.Now()
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.MaxRestarts = 1
	spec.Elastic = ElasticShrink
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if attempt > 0 || rank != 2 {
				return tr
			}
			crashed.Store(true)
			return &finalGatherCrash{tr, Tag{Kind: comm.KindCtl, A: gatherTag, B: iters}}
		}),
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !crashed.Load() || len(res.Repairs) != 0 {
		t.Fatalf("crashed=%v repairs=%d: want the crash and a restart from scratch", crashed.Load(), len(res.Repairs))
	}
	bitIdentical(t, "restart after a final-gather crash", res.Losses, ref.Losses, res.Weights, ref.Weights)
	if round := (comm.Deadlines{}).WithDefaults().AgreeRound; elapsed > round/4 {
		t.Fatalf("run took %v; a survivor waited out the finished rank (agreement round %v)", elapsed, round)
	}
}
