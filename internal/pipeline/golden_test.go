package pipeline

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"weipipe/internal/comm"
	"weipipe/internal/tensor"
)

// beltGolden pins the belt runs at n microbatches on one wire precision
// (f32, or comm.BeltBF16): their per-iteration loss bits and the checksum of
// their final weights (comm.ChecksumSlice of AssembleWeights).
type beltGolden struct {
	n       int
	bf16    bool
	losses  []uint64
	weights uint32
}

// beltGoldens were captured on the scalar backend once owners accumulated
// their own W passes in place and deferred rounds their partials on the rank
// (order.GradChain). How weights travel never changes what a rank computes
// on, and the gradient's fold order is the chain's on every belt, so these
// stay fixed across strategies and setups. At n=4 no round is deferred.
var beltGoldens = []beltGolden{
	{4, false, []uint64{0x40065d0340000000, 0x40078c9680000000}, 0xeb4cf95c},
	{4, true, []uint64{0x40065be560000000, 0x40078921c0000000}, 0x7666c97},
	{8, false, []uint64{0x4007fbdb40000000, 0x40069833c0000000}, 0x1fac4400},
	{8, true, []uint64{0x4007fbe620000000, 0x40066a5700000000}, 0x1d83b3c7},
}

// TestBeltRunsMatchGoldens trains wzb2, weipipe-interleave and wzb2g at p=4,
// n ∈ {4, 8}, on f32 and bf16 belts, in process, in process under
// Options.Integrity and over TCP, for two iterations on the scalar backend.
// Every run of one n and precision must be bit-identical to the others —
// flat = grouped = interleave = Integrity = TCP — and to the pinned values.
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
		var codec comm.CodecFunc
		if want.bf16 {
			codec = comm.BeltBF16
		}
		first := ""
		var firstLosses []uint64
		var firstWeights uint32
		for _, s := range []Strategy{StrategyWZB2, StrategyWeiPipeInterleave, StrategyWZB2G} {
			for _, setup := range []string{"plain", "integrity", "tcp"} {
				opts := eqOpts()
				opts.GroupSize = 2
				var losses []float64
				var weights []float32
				switch setup {
				case "tcp":
					losses, weights = runTCP(t, s, p, eqCfg(), opts, iters, eqBatches(iters, want.n), codec)
				default:
					opts.Integrity = setup == "integrity"
					res := runCodec(t, s, p, eqCfg(), opts, iters, eqBatches(iters, want.n), codec)
					losses, weights = res.Losses, res.Weights
				}
				bits := make([]uint64, len(losses))
				for k, l := range losses {
					bits[k] = math.Float64bits(l)
				}
				sum := comm.ChecksumSlice(weights)
				name := fmt.Sprintf("%s n=%d bf16=%v %s", s, want.n, want.bf16, setup)
				if first == "" {
					first, firstLosses, firstWeights = name, bits, sum
				} else if !slices.Equal(bits, firstLosses) || sum != firstWeights {
					t.Errorf("%s: losses %#x, weights %#x; %s: losses %#x, weights %#x",
						name, bits, sum, first, firstLosses, firstWeights)
				}
				if !slices.Equal(bits, want.losses) {
					t.Errorf("%s: losses %#x, golden %#x", name, bits, want.losses)
				}
				if sum != want.weights {
					t.Errorf("%s: weights checksum %#x, golden %#x", name, sum, want.weights)
				}
			}
		}
	}
}
