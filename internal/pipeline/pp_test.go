package pipeline

import (
	"runtime"
	"sync"
	"testing"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
)

// warmStepAlloc runs two warm-up steps of the whole ring and returns the
// bytes the third allocates, all ranks together.
func warmStepAlloc(t *testing.T, trainers []Trainer, batches []data.Batch) uint64 {
	t.Helper()
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPPWarmStepAllocatesLessThanAChunk pins that an activation-passing
// stage keeps its flat weight and gradient buffers and gives every received
// boundary payload back to the transport pool: once arenas, pools and the
// program are warm, one p = 4 1F1B step of the whole ring — 24 activation
// and activation-gradient messages, at the long-1f1b benchmark's shape —
// allocates less than one such message (what is left is the per-pass cache
// maps, a third of that), which is below the smallest stage's chunk too.
func TestPPWarmStepAllocatesLessThanAChunk(t *testing.T) {
	// The race detector makes sync.Pool discard a quarter of its Puts at
	// random, so the transport's buffer pool has no steady state there.
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			t.Skip("sync.Pool drops Puts in this build: released payloads do not all come back")
		}
	}
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
