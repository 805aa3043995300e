package pipeline

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"weipipe/internal/comm"
)

// allRanks runs fn on every rank of a fresh p-rank in-process cluster and
// returns each rank's result.
func allRanks(t *testing.T, p int, fn func(tr comm.Transport) (float64, error)) []float64 {
	t.Helper()
	cl := comm.NewCluster(p)
	defer cl.Close()
	out := make([]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r], errs[r] = fn(cl.Transport(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

// FSDP's global sum of squares adds the shards' partials in shard order, so
// it has the bits a scalar ring all-reduce gives when rank k holds shard k,
// although rank r owns shard comm.ShardOf(r, p): the clip factor does not
// depend on the ownership layout.
func TestFSDPSumOfSquaresInShardOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	layoutMatters := false
	for trial := 0; trial < 40; trial++ {
		for p := 2; p <= 6; p++ {
			parts := make([]float64, p) // parts[k]: the partial over shard k
			for k := range parts {
				parts[k] = math.Exp(rng.Float64()*30 - 15)
			}
			want := allRanks(t, p, func(tr comm.Transport) (float64, error) {
				return comm.AllReduceScalarSum(tr, parts[tr.Rank()], 1)
			})
			got := allRanks(t, p, func(tr comm.Transport) (float64, error) {
				f := &FSDP{t: tr}
				return f.shardOrderSum(parts[comm.ShardOf(tr.Rank(), p)])
			})
			naive := allRanks(t, p, func(tr comm.Transport) (float64, error) {
				return comm.AllReduceScalarSum(tr, parts[comm.ShardOf(tr.Rank(), p)], 1)
			})
			for r := range got {
				if math.Float64bits(got[r]) != math.Float64bits(want[0]) {
					t.Fatalf("p=%d rank %d: sum %v, shard-order ring sum %v", p, r, got[r], want[0])
				}
			}
			layoutMatters = layoutMatters || naive[0] != want[0]
		}
	}
	if !layoutMatters {
		t.Error("no trial's sum depended on the layout; the test proved nothing")
	}
}
