package launch

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/pipeline"
	"weipipe/internal/tensor"
)

// TestMain doubles as the worker entry point: the supervisor under test
// re-execs this very test binary, and the environment marker diverts the
// child into RunWorker before the testing framework starts.
func TestMain(m *testing.M) {
	if IsWorker() {
		os.Exit(WorkerMain())
	}
	os.Exit(m.Run())
}

// testSpec mirrors the in-process equivalence fixtures (eqCfg/eqOpts/
// eqBatches in the pipeline package) so oracle trajectories line up with
// the rest of the test suite's expectations.
func testSpec(dir string, iters int) TrainSpec {
	return TrainSpec{
		Vocab: 13, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 6,
		ModelSeed: 42, LR: 0.01, Eps: 1e-5,
		Iters: iters, MicroBatches: 12, MicroBatchSize: 2, BatchSeed: 100,
		CheckpointEvery: 1,
		CheckpointPath:  filepath.Join(dir, "ckpt.bin"),
		Deadlines: comm.Deadlines{
			Dial:       10 * time.Second,
			Heartbeat:  25 * time.Millisecond,
			PeerDead:   1500 * time.Millisecond,
			Retransmit: 50 * time.Millisecond,
			AgreeRound: 3 * time.Second,
			Barrier:    8 * time.Second,
		},
	}
}

// runSupervised runs one supervised cluster and checks it bit-identically
// against the fault-free in-process replay of the history it took.
func runSupervised(t *testing.T, o Options) *Report {
	t.Helper()
	var trace bytes.Buffer
	if o.Log == nil {
		o.Log = &trace
	}
	rep, err := RunSupervisor(o)
	if err != nil {
		t.Fatalf("supervisor: %v\ntrace:\n%s", err, trace.String())
	}
	verifyOracle(t, o.Spec, rep)
	return rep
}

// verifyOracle replays rep.History in-process and requires bit-identical
// final weights and identical final-segment losses.
func verifyOracle(t *testing.T, spec TrainSpec, rep *Report) {
	t.Helper()
	losses, weights, err := ReplayOracle(spec, rep.History)
	if err != nil {
		t.Fatalf("oracle: %v (history %+v)", err, rep.History)
	}
	wantHash := fmt.Sprintf("%016x", pipeline.HashWeights(weights))
	if rep.WeightsHash != wantHash {
		t.Fatalf("weights diverged: cluster %s vs oracle %s (history %+v)",
			rep.WeightsHash, wantHash, rep.History)
	}
	lastStart := rep.History[len(rep.History)-1].StartIter
	if len(rep.Losses) != len(losses) {
		t.Fatalf("loss vector length %d vs oracle %d", len(rep.Losses), len(losses))
	}
	for it := lastStart; it < len(losses); it++ {
		if rep.Losses[it] != losses[it] {
			t.Fatalf("loss diverged at iter %d: cluster %v vs oracle %v", it, rep.Losses[it], losses[it])
		}
	}
}

// checkNoLeaks verifies the supervisor tore down every goroutine and file
// descriptor it created.
func checkNoLeaks(t *testing.T, baseGoroutines, baseFDs int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseGoroutines+2 && countFDs(t) <= baseFDs+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: %d goroutines (base %d), %d fds (base %d)",
				runtime.NumGoroutine(), baseGoroutines, countFDs(t), baseFDs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func countFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("read fd table: %v", err)
	}
	return len(ents)
}

func TestCrossProcessPlain(t *testing.T) {
	rep := runSupervised(t, Options{
		Ranks: 3,
		Spec:  testSpec(t.TempDir(), 4),
	})
	if len(rep.History) != 1 || rep.History[0].Policy != "initial" || rep.History[0].World != 3 {
		t.Fatalf("unexpected history %+v", rep.History)
	}
}

// pinBackend selects a tensor backend in this (supervisor and oracle)
// process for the rest of the test.
func pinBackend(t *testing.T, name string) {
	t.Helper()
	prev := tensor.BackendName()
	if err := tensor.SetBackend(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Errorf("restore backend %q: %v", prev, err)
		}
	})
}

// The supervisor's backend choice reaches every worker: with the scalar
// oracle pinned here, workers left to their own CPUID default would check in
// on another backend and be refused; instead the run matches the scalar
// in-process replay bit for bit.
func TestCrossProcessPinnedBackend(t *testing.T) {
	pinBackend(t, "scalar")
	runSupervised(t, Options{
		Ranks: 3,
		Spec:  testSpec(t.TempDir(), 3),
	})
}

// A worker whose hello names a backend of another bit class than the
// supervisor's — an older binary that ignores the pin, or none at all —
// fails the fleet with ErrMixedBackends before any rank is assigned; one
// that runs avx2 under an avx512 supervisor computes the same bits and is
// admitted. Hellos are forged, so no CPU support is needed.
func TestMixedBackendFleetRejected(t *testing.T) {
	for _, c := range []struct {
		supervisor, worker string
		admit              bool
	}{
		{"avx512", "avx2", true},
		{"avx2", "avx512", true},
		{"scalar", "scalar", true},
		{"avx512", "scalar", false},
		{"avx512", "", false},
		{"scalar", "avx2", false},
		{"scalar", "some-other-backend", false},
		{"some-other-backend", "some-other-backend", false},
	} {
		s := &supervisor{
			backend: c.supervisor,
			events:  make(chan supEvent, 4),
			procs:   map[int]*proc{0: {id: 0}, 1: {id: 1}},
		}
		for id, backend := range []string{c.worker, c.worker} {
			near, far := net.Pipe()
			defer near.Close()
			defer far.Close()
			s.events <- supEvent{id: id, c: newCodec(near), msg: Msg{Type: "hello", ID: id, Backend: backend}}
		}
		err := s.waitHellos(2)
		if c.admit && err != nil {
			t.Fatalf("supervisor %q, worker hello %q: got %v, want admitted", c.supervisor, c.worker, err)
		}
		if !c.admit && !errors.Is(err, ErrMixedBackends) {
			t.Fatalf("supervisor %q, worker hello %q: got %v, want ErrMixedBackends", c.supervisor, c.worker, err)
		}
	}
}

func TestCrossProcessSIGKILLShrinkRecovery(t *testing.T) {
	rep := runSupervised(t, Options{
		Ranks: 4,
		Spec:  testSpec(t.TempDir(), 6),
		Schedule: []FaultEvent{
			{AtIter: 2, Action: "kill", Target: 1},
		},
	})
	if len(rep.History) != 2 {
		t.Fatalf("expected 2 incarnations, got %+v", rep.History)
	}
	ev := rep.History[1]
	if ev.Policy != "shrink" || ev.World != 3 || len(ev.Dead) != 1 || ev.Dead[0] != 1 {
		t.Fatalf("expected shrink to 3 around dead rank 1, got %+v", ev)
	}
	if ev.StartIter < 2 || ev.StartIter >= 6 {
		t.Fatalf("implausible harvest cut %d", ev.StartIter)
	}
}

func TestCrossProcessSIGKILLSpareRecovery(t *testing.T) {
	rep := runSupervised(t, Options{
		Ranks:  4,
		Spares: 1,
		Spec:   testSpec(t.TempDir(), 6),
		Schedule: []FaultEvent{
			{AtIter: 2, Action: "kill", Target: 1},
		},
	})
	if len(rep.History) != 2 {
		t.Fatalf("expected 2 incarnations, got %+v", rep.History)
	}
	ev := rep.History[1]
	if ev.Policy != "spare" || ev.World != 4 {
		t.Fatalf("expected spare re-admission keeping world 4, got %+v", ev)
	}
}

// TestCrossProcessPartitionMembershipFence partitions one rank away from
// every peer for longer than the death budget. The majority must converge
// on burying it; the victim — whose own detector sees everyone else dead —
// must abort without quorum to standby, from where the supervisor re-seeds
// it as a spare into the next epoch (world stays 4: the healed zombie
// re-admission path). Bit-identity with the oracle proves no frame from
// the fenced segment leaked into the survivors' new epoch, and the
// serialized progress stream proves the two epochs never progressed
// concurrently.
func TestCrossProcessPartitionMembershipFence(t *testing.T) {
	const victim = 2
	var mu sync.Mutex
	type step struct {
		id    int
		epoch uint32
	}
	var steps []step
	rep := runSupervised(t, Options{
		Ranks: 4,
		Spec:  testSpec(t.TempDir(), 6),
		Schedule: []FaultEvent{
			{AtIter: 2, Action: "partition", Target: victim,
				Dur: 3 * time.Second, Peers: []int{0, 1, 3}},
		},
		OnProgress: func(id int, m Msg) {
			if m.State != "" {
				return // barrier beacons are liveness, not progress
			}
			mu.Lock()
			steps = append(steps, step{id: id, epoch: m.Epoch})
			mu.Unlock()
		},
	})
	if len(rep.History) != 2 {
		t.Fatalf("expected 2 incarnations, got %+v", rep.History)
	}
	ev := rep.History[1]
	if len(ev.Dead) != 1 || ev.Dead[0] != victim {
		t.Fatalf("expected majority to bury partitioned rank %d, got %+v", victim, ev)
	}
	if ev.Policy != "spare" || ev.World != 4 {
		t.Fatalf("expected the aborted victim re-seeded as a spare (world 4), got %+v", ev)
	}
	// Split-brain check over the supervisor-serialized progress stream:
	// once any worker completes an iteration in the new epoch, no worker
	// may complete one in the fenced-off old epoch.
	mu.Lock()
	defer mu.Unlock()
	sawNew := false
	for _, s := range steps {
		if s.epoch == ev.Epoch {
			sawNew = true
		} else if sawNew {
			t.Fatalf("worker %d progressed in stale epoch %d after epoch %d began: split brain",
				s.id, s.epoch, ev.Epoch)
		}
	}
	if !sawNew {
		t.Fatal("no progress observed in the repaired epoch")
	}
}

// TestSoakChaosSchedules is the seeded chaos soak: WEIPIPE_SOAK=N replays
// N deterministic randomized fault schedules — process kills, stalls,
// timed partitions, plus frame-level chaos under the reliability layer —
// each verified bit-identical to its fault-free oracle and leak-free.
// WEIPIPE_SOAK_OUT, when set, receives one JSONL trace per schedule (the
// CI artifact uploaded on failure). WEIPIPE_SOAK_BACKEND, when set, pins
// the tensor backend of the supervisor, its workers and the oracle.
func TestSoakChaosSchedules(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("WEIPIPE_SOAK"))
	if n <= 0 {
		t.Skip("set WEIPIPE_SOAK=<n> to run the chaos soak")
	}
	if name := os.Getenv("WEIPIPE_SOAK_BACKEND"); name != "" {
		pinBackend(t, name)
	}
	outDir := os.Getenv("WEIPIPE_SOAK_OUT")
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	baseG, baseFD := runtime.NumGoroutine(), countFDs(t)
	for i := 0; i < n; i++ {
		seed := uint64(0xdecaf + 7919*i)
		t.Run(fmt.Sprintf("seed_%#x", seed), func(t *testing.T) {
			spec := testSpec(t.TempDir(), 8)
			spec.Chaos = &comm.ChaosConfig{
				Seed: seed, Drop: 0.01, Dup: 0.01, Reorder: 0.01, Corrupt: 0.005,
			}
			var trace bytes.Buffer
			o := Options{
				Ranks:    4,
				Spares:   1,
				Spec:     spec,
				Schedule: GenSchedule(seed, 4, 8, 3),
				Log:      &trace,
			}
			rep, err := RunSupervisor(o)
			if outDir != "" {
				path := filepath.Join(outDir, fmt.Sprintf("schedule-%#x.jsonl", seed))
				if werr := os.WriteFile(path, trace.Bytes(), 0o644); werr != nil {
					t.Errorf("write trace: %v", werr)
				}
			}
			if err != nil {
				t.Fatalf("schedule %#x: %v\ntrace:\n%s", seed, err, trace.String())
			}
			verifyOracle(t, spec, rep)
		})
	}
	checkNoLeaks(t, baseG, baseFD)
}
