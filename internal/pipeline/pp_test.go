package pipeline

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/tensor"
)

// warmStepAlloc runs two warm-up steps of the whole ring and returns the
// bytes a warm step allocates, all ranks together: the least of three
// measured steps. TotalAlloc is process-wide, and a GC that empties
// sync.Pool during a step makes the step re-allocate what it would have
// reused, so each reading is an upper bound on the step's own allocation
// and the minimum is the tightest one. It skips the test where sync.Pool
// drops Puts (-race): released payloads do not all come back, so there is no
// steady state to pin. The arena poison is off while it runs: under it every
// arena hand-out takes a fresh tensor header.
func warmStepAlloc(t *testing.T, trainers []Trainer, batches []data.Batch) uint64 {
	t.Helper()
	if comm.LossyPool() {
		t.Skip("sync.Pool drops Puts in this build: released payloads do not all come back")
	}
	tensor.SetArenaPoison(false)
	defer tensor.SetArenaPoison(true)
	step := func() {
		var wg sync.WaitGroup
		for _, tr := range trainers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := tr.TrainIteration(batches); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	step()
	step()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestPPWarmStepAllocatesLessThanAChunk pins that an activation-passing
// stage keeps its flat weight and gradient buffers and gives every received
// boundary payload back to the transport pool: once arenas, pools and the
// program are warm, one p = 4 1F1B step of the whole ring — 24 activation
// and activation-gradient messages, at the long-1f1b benchmark's shape —
// allocates less than one such message (what is left is the per-pass cache
// maps, a third of that), which is below the smallest stage's chunk too.
func TestPPWarmStepAllocatesLessThanAChunk(t *testing.T) {
	const p, n, seq = 4, 4, 512
	cfg := model.Config{Vocab: 64, Hidden: 64, Layers: 4, Heads: 2, MaxSeq: seq, Seed: 7}
	gen := data.NewGenerator(99, cfg.Vocab, seq)
	batches := make([]data.Batch, n)
	for i := range batches {
		batches[i] = gen.Next(1)
	}
	cl := comm.NewCluster(p)
	defer cl.Close()
	trainers := make([]Trainer, p)
	for r := range trainers {
		tr, err := NewPP(cl.Transport(r), cfg, Options{}, Strategy1F1B)
		if err != nil {
			t.Fatal(err)
		}
		trainers[r] = tr
	}
	const messageBytes = 4 * seq * 64 // G·S·H float32
	if got := warmStepAlloc(t, trainers, batches); got >= messageBytes {
		t.Fatalf("a warm 1f1b step allocated %d bytes, one boundary message is %d", got, messageBytes)
	}
}

// TestDPWarmStepAllocatesLessThanAChunk is the same pin for data
// parallelism: a replica keeps its flat weights and gradients, so a warm
// step of the ring allocates less than one replica's worth of either.
func TestDPWarmStepAllocatesLessThanAChunk(t *testing.T) {
	const p, n = 2, 4
	cfg := model.Config{Vocab: 64, Hidden: 64, Layers: 4, Heads: 2, MaxSeq: 8, Seed: 7}
	batches := traceTestBatches(n) // 8 tokens below 13: inside this vocabulary and MaxSeq
	cl := comm.NewCluster(p)
	defer cl.Close()
	trainers := make([]Trainer, p)
	var chunkBytes uint64
	for r := range trainers {
		tr, err := NewDP(cl.Transport(r), cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		trainers[r] = tr
		chunkBytes = 4 * uint64(tr.mdl.NumParams())
	}
	if got := warmStepAlloc(t, trainers, batches); got >= chunkBytes {
		t.Fatalf("a warm dp step allocated %d bytes, a replica's flat weights are %d", got, chunkBytes)
	}
}

// TestSerialWarmStepAllocatesLessThanAChunk is the same pin for the serial
// reference: it owns the whole model as one piece and steps it in place, so
// a warm step allocates less than the model's flat weights.
func TestSerialWarmStepAllocatesLessThanAChunk(t *testing.T) {
	cfg := model.Config{Vocab: 64, Hidden: 64, Layers: 4, Heads: 2, MaxSeq: 8, Seed: 7}
	s := NewSerial(cfg, Options{})
	modelBytes := 4 * uint64(s.mdl.NumParams())
	if got := warmStepAlloc(t, []Trainer{s}, traceTestBatches(4)); got >= modelBytes {
		t.Fatalf("a warm serial step allocated %d bytes, the model's flat weights are %d", got, modelBytes)
	}
}

// TestPPAbortReleasesInFlightMicrobatches kills the last stage of a 1F1B
// ring at its second send — microbatches forwarded, their activation
// payloads received, one B pass done — and requires both stages to come out
// of the failed iteration holding no microbatch: every arena back in the
// stage's pool and no received payload kept (a second release of one would
// panic under the package's buffer poison).
func TestPPAbortReleasesInFlightMicrobatches(t *testing.T) {
	const p, n = 2, 4
	cfg := model.Config{Vocab: 64, Hidden: 64, Layers: 4, Heads: 2, MaxSeq: 8, Seed: 7}
	batches := traceTestBatches(n)
	cl := comm.NewCluster(p)
	defer cl.Close()
	trainers := make([]*PP, p)
	for r := range trainers {
		var tr comm.Transport = cl.Transport(r)
		if r == p-1 {
			tr = comm.NewFaultTransport(tr, comm.FaultConfig{CrashAtSend: 2})
		}
		pp, err := NewPP(tr, cfg, Options{}, Strategy1F1B)
		if err != nil {
			t.Fatal(err)
		}
		trainers[r] = pp
	}
	var wg sync.WaitGroup
	for r, tr := range trainers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.TrainIteration(batches); err == nil {
				t.Errorf("rank %d: the iteration survived the crash", r)
			}
			if r == p-1 {
				cl.Close() // the dead stage takes the fabric down: rank 0 unblocks
			}
		}()
	}
	wg.Wait()
	for r, tr := range trainers {
		if len(tr.arenas) != 0 || len(tr.inbox) != 0 || len(tr.caches) != 0 {
			t.Errorf("rank %d still holds %d arenas, %d payload sets, %d cache sets",
				r, len(tr.arenas), len(tr.inbox), len(tr.caches))
		}
		if len(tr.apool.free) == 0 {
			t.Errorf("rank %d: no arena went back to the pool", r)
		}
	}
}
