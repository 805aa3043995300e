package pipeline

import (
	"runtime"
	"strings"
	"testing"

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
	res, err := RunResilient(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{
			MaxRestarts: 1,
			WrapTransport: func(attempt, rank int, tr comm.Transport) comm.Transport {
				if attempt == 0 && rank == 1 {
					crashed = comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: 1})
					return crashed
				}
				return tr
			},
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
	res, err := RunResilient(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{
			CheckpointEvery: 2,
			MaxRestarts:     1,
			WrapTransport: func(attempt, rank int, tr comm.Transport) comm.Transport {
				if attempt == 0 && rank == 1 {
					// First send of iteration 2, immediately after the
					// checkpoint taken at the iteration-2 barrier.
					crashed = comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: perIter*2 + 1})
					return crashed
				}
				return tr
			},
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
	_, err := RunResilient(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{
			MaxRestarts: 2,
			WrapTransport: func(attempt, rank int, tr comm.Transport) comm.Transport {
				if rank == 0 {
					return comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: 5})
				}
				return tr
			},
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
	first, err := RunResilient(StrategyWZB2, p, eqCfg(), eqOpts(), cut, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Checkpoint == nil || first.Checkpoint.Step != cut {
		t.Fatalf("last checkpoint %+v, want the final iteration's (%d)", first.Checkpoint, cut)
	}
	rest, err := RunResilient(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{InitialSnapshot: first.Checkpoint})
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
	res, err := RunResilient(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{
			InitialSnapshot: seed,
			MaxRestarts:     1,
			Elastic:         ElasticSpare,
			Spares:          1,
			WrapTransport:   crashRankOne(&crashed, perIter+perIter/2),
		})
	if err != nil {
		t.Fatal(err)
	}
	if !crashed.Crashed() || len(res.Repairs) != 1 {
		t.Fatalf("crashed=%v repairs=%d: the buddy path was not exercised", crashed.Crashed(), len(res.Repairs))
	}
	bitIdentical(t, "weight-only seed", res.Losses, ref.Losses, res.Weights, ref.Weights)
}
