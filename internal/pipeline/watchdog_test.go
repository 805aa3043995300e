package pipeline

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"weipipe/internal/comm"
)

// Watchdog contract: clean runs of every strategy are never flagged (the
// waiting-in-Recv discriminator exempts stall victims, idle marks exempt
// ranks parked at the barrier), while a rank artificially stalled inside a
// Send — alive, link up, making no progress — is flagged, and optionally
// declared dead, funnelling into the same elastic repair path as a crash.

// A watched rank runs the data path an unwatched one does: the beacon hands
// every send on as what it is, so a donated or relayed buffer reaches the
// peer uncopied in process, and on TCP a relay reaches the transport's
// checksum-reuse path — whose check, under the package's buffer poison,
// panics on a payload written since receipt.
func TestWatchdogBeaconKeepsZeroCopyPath(t *testing.T) {
	board := NewProgressBoard(3)
	cl := comm.NewCluster(2)
	defer cl.Close()
	tx := WrapBeacon(cl.Transport(0), board, 0)
	for i, send := range []func(comm.Transport, int, Tag, []float32) error{comm.Transport.SendOwned, comm.Transport.Forward} {
		tag := Tag{Kind: comm.KindWeight, A: i}
		payload := comm.GetBuf(128)
		donated := &payload[0]
		if err := send(tx, 1, tag, payload); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Transport(1).Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != donated {
			t.Errorf("send %d through the beacon delivered a copy", i)
		}
		comm.Release(got)
	}

	trs := dialMesh(t, 3, comm.TCPOptions{Deadlines: comm.Deadlines{Dial: 5 * time.Second}})
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	src := make([]float32, 4*4096)
	tag := Tag{Kind: comm.KindWeight, A: 1}
	if err := trs[0].Send(1, tag, src); err != nil {
		t.Fatal(err)
	}
	got, err := trs[1].RecvTimeout(0, tag, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got[len(got)/2] = 1
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a written payload relayed through the beacon left without the checksum check")
			}
		}()
		WrapBeacon(trs[1], board, 1).Forward(2, Tag{Kind: comm.KindWeight, A: 2}, got) // releases got as it panics
	}()
}

// The beacon keeps the whole endpoint contract, Flush included: a frame
// queued behind a partition holds a wrapped TCP endpoint's flush until its
// timeout, as it holds the bare endpoint's, so CloseMesh under the watchdog
// drains the mesh before it closes it.
func TestWatchdogBeaconFlushes(t *testing.T) {
	trs := dialMesh(t, 2, comm.TCPOptions{Deadlines: comm.Deadlines{Dial: 5 * time.Second}})
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	trs[0].(*comm.TCPTransport).Blackhole([]int{1}, time.Minute)
	w := WrapBeacon(trs[0], NewProgressBoard(2), 0)
	if err := w.Send(1, Tag{Kind: comm.KindCtl}, []float32{1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := w.Flush(50 * time.Millisecond); err == nil {
		t.Fatal("the wrapped flush returned nil with a frame queued behind a partition")
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("the wrapped flush gave up after %v, before its 50ms timeout", d)
	}
}

func TestWatchdogNoFalsePositives(t *testing.T) {
	const iters, n = 3, 4
	for _, s := range Strategies() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			_, err := RunResilient(eqSpec(s, 2, iters, n), RunHooks{
				Watchdog: &WatchdogConfig{
					Interval: 2 * time.Millisecond,
					Multiple: 4,
				},
				OnRepair: func(ev RepairEvent) { t.Errorf("repair on a clean run: %+v", ev) },
			})
			if err != nil {
				t.Fatalf("clean run failed: %v", err)
			}
		})
	}
	// OnStraggler is checked separately on a WZB2 run so the callback's
	// absence above cannot hide a flag.
	var mu sync.Mutex
	var flagged []StragglerReport
	_, err := RunResilient(eqSpec(StrategyWZB2, 2, iters, n), RunHooks{
		Watchdog: &WatchdogConfig{
			Interval: 2 * time.Millisecond,
			Multiple: 4,
			OnStraggler: func(r StragglerReport) {
				mu.Lock()
				flagged = append(flagged, r)
				mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if len(flagged) != 0 {
		t.Fatalf("clean WZB2 run flagged stragglers: %+v", flagged)
	}
}

// A rank stalled for 2 s inside a Send (one deterministic straggler event
// injected by the fault transport) must be flagged — and only that rank —
// without perturbing the training result.
func TestWatchdogFlagsStalledRank(t *testing.T) {
	const p, iters, n = 2, 4, 4
	perIter := sendsPerIteration(t, p, iters, n)
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var flagged []StragglerReport
	res, err := RunResilient(eqSpec(StrategyWZB2, p, iters, n), RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if rank == 1 {
				// Stall in iteration 1, after the first completed
				// iteration has armed the threshold.
				return comm.NewFaultTransport(tr, comm.FaultConfig{
					StallAtSend: perIter + 2,
					StallFor:    2 * time.Second,
				})
			}
			return tr
		}),
		Watchdog: &WatchdogConfig{
			Interval: 5 * time.Millisecond,
			Multiple: 2,
			MinStall: 150 * time.Millisecond,
			OnStraggler: func(r StragglerReport) {
				mu.Lock()
				flagged = append(flagged, r)
				mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatalf("stalled run failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(flagged) != 1 {
		t.Fatalf("flagged %+v, want exactly one report", flagged)
	}
	if flagged[0].Rank != 1 || flagged[0].Declared {
		t.Fatalf("flagged %+v, want rank 1, not declared dead", flagged[0])
	}
	// A straggler that recovers on its own must not have perturbed training.
	bitIdentical(t, "stalled run", res.Losses, ref.Losses, res.Weights, ref.Weights)
}

// End-to-end: DeclareDead converts a stuck rank into a rank failure, and
// the elastic policy repairs around it from buddy replicas.
func TestWatchdogDeclareDeadTriggersRepair(t *testing.T) {
	const p, iters, n = 3, 6, 6
	perIter := buddySendsPerIteration(t, p, iters, n)
	base := runtime.NumGoroutine()

	var ev RepairEvent
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.MaxRestarts = 1
	spec.Elastic = ElasticShrink
	res, err := RunResilient(spec, RunHooks{
		Transports: wrapped(inproc, func(attempt, rank int, tr comm.Transport) comm.Transport {
			if attempt == 0 && rank == 1 {
				// A stall far past any threshold: the watchdog must
				// declare rank 1 dead long before it wakes.
				return comm.NewFaultTransport(tr, comm.FaultConfig{
					StallAtSend: perIter + 2,
					StallFor:    4 * time.Second,
				})
			}
			return tr
		}),
		OnRepair: func(e RepairEvent) { ev = e },
		Watchdog: &WatchdogConfig{
			Interval:    5 * time.Millisecond,
			Multiple:    2,
			MinStall:    150 * time.Millisecond,
			DeclareDead: true,
		},
	})
	if err != nil {
		t.Fatalf("declare-dead run failed: %v", err)
	}
	if len(res.Repairs) != 1 {
		t.Fatalf("expected one repair, got %d", len(res.Repairs))
	}
	if len(ev.Dead) != 1 || ev.Dead[0] != 1 || ev.NewSize != 2 {
		t.Fatalf("repair %+v, want rank 1 declared dead and a 3->2 shrink", ev)
	}

	spec = eqSpec(StrategyWZB2, ev.NewSize, iters, n)
	spec.Elastic = ElasticShrink
	ref, err := RunResilient(spec, RunHooks{Snapshot: ev.Snapshot})
	if err != nil {
		t.Fatalf("reference run from repair snapshot: %v", err)
	}
	bitIdentical(t, "declared-dead repair vs fresh cluster",
		res.Losses[ev.Iteration:], ref.Losses[ev.Iteration:], res.Weights, ref.Weights)
	waitPipelineGoroutines(t, base)
}
