package pipeline

import (
	"runtime"
	"sync"
	"testing"

	"weipipe/internal/comm"
	"weipipe/internal/model"
)

// TestPPWarmStepAllocatesLessThanAChunk pins that an activation-passing
// stage keeps its flat weight and gradient buffers: once arenas, pools and
// the program are warm, one 1F1B step of the whole ring allocates less than
// the smallest stage's chunk — so no rank allocated a chunk-sized buffer.
func TestPPWarmStepAllocatesLessThanAChunk(t *testing.T) {
	const p, n = 2, 4
	cfg := model.Config{Vocab: 64, Hidden: 64, Layers: 4, Heads: 2, MaxSeq: 8, Seed: 7}
	batches := traceTestBatches(n) // 8 tokens below 13: inside this vocabulary and MaxSeq
	cl := comm.NewCluster(p)
	defer cl.Close()
	trainers := make([]*PP, p)
	chunkBytes := uint64(1) << 62
	for r := range trainers {
		tr, err := NewPP(cl.Transport(r), cfg, Options{}, Strategy1F1B)
		if err != nil {
			t.Fatal(err)
		}
		trainers[r] = tr
		chunkBytes = min(chunkBytes, 4*uint64(tr.mdl.ChunkSize(tr.lo, tr.hi)))
	}
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
	if got := after.TotalAlloc - before.TotalAlloc; got >= chunkBytes {
		t.Fatalf("a warm 1f1b step allocated %d bytes, the smallest chunk is %d", got, chunkBytes)
	}
}
