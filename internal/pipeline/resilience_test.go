package pipeline

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
)

// The resilience contract: a training run that loses a rank mid-iteration
// and recovers from its last coordinated checkpoint must land on exactly
// the loss trajectory and weights of a run that never failed. Not "close" —
// bit-identical: checkpoints capture fp32 weights, optimizer moments and
// the data cursor exactly, and the replayed iterations consume the same
// batches in the same order.

func waitPipelineGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func bitIdentical(t *testing.T, name string, gotLoss, wantLoss []float64, gotW, wantW []float32) {
	t.Helper()
	if len(gotLoss) != len(wantLoss) {
		t.Fatalf("%s: %d losses, want %d", name, len(gotLoss), len(wantLoss))
	}
	for i := range wantLoss {
		if gotLoss[i] != wantLoss[i] {
			t.Errorf("%s: iteration %d loss %v != reference %v (must be bit-identical)",
				name, i, gotLoss[i], wantLoss[i])
		}
	}
	if len(gotW) != len(wantW) {
		t.Fatalf("%s: %d weights, want %d", name, len(gotW), len(wantW))
	}
	for i := range wantW {
		if gotW[i] != wantW[i] {
			t.Fatalf("%s: weight %d = %v != reference %v (must be bit-identical)",
				name, i, gotW[i], wantW[i])
		}
	}
}

// inproc builds a fresh in-process cluster per recovery attempt, honouring
// the size the elastic runner asks for.
func inproc(_, size int) ([]comm.Transport, error) {
	return comm.NewCluster(size).Transports(), nil
}

// wrapped is build's fabric with every endpoint passed through wrap: how the
// tests inject crashes and probes.
func wrapped(build func(attempt, size int) ([]comm.Transport, error),
	wrap func(attempt, rank int, t comm.Transport) comm.Transport) func(attempt, size int) ([]comm.Transport, error) {
	return func(attempt, size int) ([]comm.Transport, error) {
		ts, err := build(attempt, size)
		for r := range ts {
			ts[r] = wrap(attempt, r, ts[r])
		}
		return ts, err
	}
}

// runCodec is RunCluster over an in-process fabric whose sends travel under
// codec (nil = f32): the wire precision is the transport's choice, so a bf16
// run is a fabric choice, not an option.
func runCodec(t *testing.T, s Strategy, p int, cfg model.Config, opts Options, iters int,
	batches func(int) []data.Batch, codec comm.CodecFunc) *ClusterResult {
	t.Helper()
	res, err := RunResilient(RunSpec{Strategy: s, Model: cfg, Options: opts, World: p, Iters: iters},
		RunHooks{Batches: batches, Transports: func(_, size int) ([]comm.Transport, error) {
			return comm.NewClusterCodec(size, codec).Transports(), nil
		}})
	if err != nil {
		t.Fatalf("%s p=%d: %v", s, p, err)
	}
	return res
}

// sendsPerIteration measures how many transport sends one WZB2 rank issues
// per iteration, so crash schedules can be placed at a chosen iteration.
func sendsPerIteration(t *testing.T, p, iters, n int) int64 {
	t.Helper()
	var probe *comm.FaultTransport
	res, err := RunResilient(eqSpec(StrategyWZB2, p, iters, n), RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if rank == 1 {
				probe = comm.NewFaultTransport(tr, comm.FaultConfig{})
				return probe
			}
			return tr
		}),
	})
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	_ = res
	return perIteration(t, probe, p, iters)
}

// perIteration reads a probe's send count as sends per iteration: training
// plus the loss barrier, once the final weight gather (one share to each
// peer) is taken off.
func perIteration(t *testing.T, probe *comm.FaultTransport, p, iters int) int64 {
	t.Helper()
	sends := probe.Sends() - int64(p-1)
	if sends <= 0 || sends%int64(iters) != 0 {
		t.Fatalf("probe counted %d sends over %d iterations", sends, iters)
	}
	return sends / int64(iters)
}

// A fault-free RunResilient must reproduce RunCluster exactly — the
// recovery scaffolding itself (lock-step driver, checkpoint capture) must
// not perturb training.
func TestResilientRunnerMatchesCluster(t *testing.T) {
	const p, iters, n = 2, 4, 4
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.CheckpointEvery = 2
	res, err := RunResilient(spec, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "fault-free resilient", res.Losses, ref.Losses, res.Weights, ref.Weights)
}

// Kill a rank mid-iteration (in-process), recover from the checkpoint, and
// demand the reference trajectory.
func TestCrashRecoveryInproc(t *testing.T) {
	const p, iters, n = 2, 6, 4
	perIter := sendsPerIteration(t, p, iters, n)
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	// Crash rank 1 in the middle of iteration 4 (0-based iteration 3): a
	// checkpoint exists at iteration-2, so recovery replays iterations 2-5.
	var crashed *comm.FaultTransport
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.CheckpointEvery = 2
	spec.MaxRestarts = 1
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if attempt == 0 && rank == 1 {
				crashed = comm.NewFaultTransport(tr, comm.FaultConfig{
					CrashAtSend: perIter*3 + perIter/2,
				})
				return crashed
			}
			return tr
		}),
	})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if !crashed.Crashed() {
		t.Fatal("scheduled crash never fired; the test proved nothing")
	}
	bitIdentical(t, "in-proc crash recovery", res.Losses, ref.Losses, res.Weights, ref.Weights)
}

// Without a restart budget, a rank failure must surface as an error, not a
// hang: every surviving rank is unblocked and the run fails cleanly.
func TestCrashWithoutRestartsFailsCleanly(t *testing.T) {
	const p, iters, n = 2, 4, 4
	base := runtime.NumGoroutine()
	_, err := RunResilient(eqSpec(StrategyWZB2, p, iters, n), RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if rank == 0 {
				return comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: 10})
			}
			return tr
		}),
	})
	if err == nil {
		t.Fatal("crash with MaxRestarts=0 did not fail the run")
	}
	waitPipelineGoroutines(t, base)
}

// The headline chaos test: WZB2 over real TCP with seeded frame-level
// chaos (delay, drop, duplication, reordering, corruption) plus a rank
// killed mid-run, recovered from its checkpoint file — against a fault-free
// in-process reference. Loss trajectory and final weights must come back
// bit-identical, and the whole ordeal must leak no goroutines.
func TestChaosEquivalenceWZB2TCP(t *testing.T) {
	const p, iters, n = 2, 6, 4
	perIter := sendsPerIteration(t, p, iters, n)
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	tcpOpts := comm.TCPOptions{
		DialTimeout:       10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		PeerDeadTimeout:   2 * time.Second,
		RetransmitTimeout: 40 * time.Millisecond,
		ReconnectBackoff:  5 * time.Millisecond,
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

	ckpt := filepath.Join(t.TempDir(), "chaos.wpck")
	var crashed *comm.FaultTransport
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.CheckpointEvery = 2
	spec.CheckpointPath = ckpt
	spec.MaxRestarts = 1
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(chaosTCPFactory(tcpOpts), func(attempt, rank int, tr comm.Transport) comm.Transport {
			if attempt == 0 && rank == 1 {
				crashed = comm.NewFaultTransport(tr, comm.FaultConfig{
					CrashAtSend: perIter*3 + perIter/2,
				})
				return crashed
			}
			return tr
		}),
	})
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if !crashed.Crashed() {
		t.Fatal("scheduled rank kill never fired; the test proved nothing")
	}
	bitIdentical(t, "chaos WZB2/TCP", res.Losses, ref.Losses, res.Weights, ref.Weights)

	// The chaos must actually have exercised the reliability machinery.
	f := res.TotalComm().TotalFaults()
	if f.Retransmits+f.DupFrames+f.CorruptFrames == 0 {
		t.Error("chaos run recorded no transport faults; injection was a no-op")
	}
	// A clean recovery leaves nothing behind: transports closed, rank
	// goroutines joined.
	waitPipelineGoroutines(t, base)
}
