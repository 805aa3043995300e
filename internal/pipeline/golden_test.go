package pipeline

import (
	"fmt"
	"math"
	"testing"

	"weipipe/internal/comm"
	"weipipe/internal/tensor"
)

// beltGolden pins one belt run: its per-iteration loss bits and the checksum
// of its final weights (comm.ChecksumSlice of AssembleWeights).
type beltGolden struct {
	s       Strategy
	n       int
	setup   string // "plain", "bf16" (comm.BeltBF16, Integrity off), "integrity"
	losses  []uint64
	weights uint32
}

// beltGoldens were captured on the scalar backend before owners and grouped
// holders served their own uses of a chunk. How weights travel never changes
// what a rank computes on, so these stay fixed; a local copy that skipped the
// wire codec's rounding moves the bf16 rows.
var beltGoldens = []beltGolden{
	{"wzb2", 4, "plain", []uint64{0x40065d0340000000, 0x40078c9680000000}, 0x89c91eda},
	{"wzb2", 4, "bf16", []uint64{0x40065be560000000, 0x4007892d20000000}, 0x15dbb137},
	{"wzb2", 4, "integrity", []uint64{0x40065d0340000000, 0x40078c9680000000}, 0x89c91eda},
	{"wzb2", 8, "plain", []uint64{0x4007fbdb40000000, 0x40069833c0000000}, 0x8ed6053},
	{"wzb2", 8, "bf16", []uint64{0x4007fbe620000000, 0x40066a94c0000000}, 0xbf069ba5},
	{"wzb2", 8, "integrity", []uint64{0x4007fbdb40000000, 0x40069833c0000000}, 0x8ed6053},
	{"weipipe-interleave", 4, "plain", []uint64{0x40065d0340000000, 0x40078c9680000000}, 0x89c91eda},
	{"weipipe-interleave", 4, "bf16", []uint64{0x40065be560000000, 0x4007892d20000000}, 0x15dbb137},
	{"weipipe-interleave", 4, "integrity", []uint64{0x40065d0340000000, 0x40078c9680000000}, 0x89c91eda},
	{"weipipe-interleave", 8, "plain", []uint64{0x4007fbdb40000000, 0x40069833c0000000}, 0x8ed6053},
	{"weipipe-interleave", 8, "bf16", []uint64{0x4007fbe620000000, 0x40066a94c0000000}, 0xbf069ba5},
	{"weipipe-interleave", 8, "integrity", []uint64{0x4007fbdb40000000, 0x40069833c0000000}, 0x8ed6053},
	{"wzb2g", 4, "plain", []uint64{0x40065d0340000000, 0x40078c9680000000}, 0x89c91eda},
	{"wzb2g", 4, "bf16", []uint64{0x40065be560000000, 0x4007892d20000000}, 0x15dbb137},
	{"wzb2g", 4, "integrity", []uint64{0x40065d0340000000, 0x40078c9680000000}, 0x89c91eda},
	{"wzb2g", 8, "plain", []uint64{0x4007fbdb40000000, 0x40069833c0000000}, 0x8ed6053},
	{"wzb2g", 8, "bf16", []uint64{0x4007fbe620000000, 0x40066a94c0000000}, 0xbf069ba5},
	{"wzb2g", 8, "integrity", []uint64{0x4007fbdb40000000, 0x40069833c0000000}, 0x8ed6053},
}

// TestBeltRunsMatchGoldens trains every golden's run — wzb2,
// weipipe-interleave and wzb2g at p=4, n ∈ {4, 8}, plain, over a bf16 belt
// and under Options.Integrity — for two iterations on the scalar backend, and
// compares loss bits and the final weights' checksum to the pinned values.
func TestBeltRunsMatchGoldens(t *testing.T) {
	const p, iters = 4, 2
	prev := tensor.BackendName()
	if err := tensor.SetBackend("scalar"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, want := range beltGoldens {
		opts := eqOpts()
		opts.GroupSize = 2
		var codec comm.CodecFunc
		switch want.setup {
		case "bf16":
			codec = comm.BeltBF16
		case "integrity":
			opts.Integrity = true
		}
		res := runCodec(t, want.s, p, eqCfg(), opts, iters, eqBatches(iters, want.n), codec)
		name := fmt.Sprintf("%s n=%d %s", want.s, want.n, want.setup)
		for k, l := range res.Losses {
			if got := math.Float64bits(l); got != want.losses[k] {
				t.Errorf("%s: iteration %d loss %v, golden %v", name, k, l, math.Float64frombits(want.losses[k]))
			}
		}
		if got := comm.ChecksumSlice(res.Weights); got != want.weights {
			t.Errorf("%s: weights checksum %#x, golden %#x", name, got, want.weights)
		}
	}
}
