package cost

import (
	"testing"
	"testing/quick"

	"weipipe/internal/cluster"
	"weipipe/internal/tensor"
)

// randWorkload draws a small-but-valid workload from fuzz bytes.
func randWorkload(seed uint64) Workload {
	rng := tensor.NewRNG(seed)
	p := 1 << rng.Intn(4)      // 1..8
	l := p * (1 + rng.Intn(4)) // divisible by p
	n := p * (1 + rng.Intn(4)) // divisible by p
	h := 256 << rng.Intn(4)    // 256..2048
	s := 1024 << rng.Intn(4)   // 1k..8k
	g := 1 << rng.Intn(4)      // 1..8
	return Workload{
		H: h, S: s, G: g, L: l, N: n, P: p,
		Recompute: rng.Intn(2) == 0,
	}.WithDefaults()
}

var allMemStrategies = []string{
	"gpipe", "1f1b", "zb1", "zb2", "fsdp", "dp",
	"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2", "wzb2g",
}

// Property: memory is positive and monotone non-decreasing in G for every
// strategy (activations only grow with the microbatch).
func TestMemoryMonotoneInMicrobatch(t *testing.T) {
	f := func(seed uint64) bool {
		w := randWorkload(seed)
		big := w
		big.G = w.G * 2
		for _, s := range allMemStrategies {
			a := w.MemoryBytes(s)
			b := big.MemoryBytes(s)
			if a <= 0 || b < a {
				t.Logf("%s: G=%d -> %f, G=%d -> %f", s, w.G, a, big.G, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: recomputation never increases memory and never decreases the
// B-pass duration, for the strategies that honour the flag.
func TestRecomputeTradeoffProperty(t *testing.T) {
	f := func(seed uint64) bool {
		w := randWorkload(seed)
		w.Recompute = true
		off := w
		off.Recompute = false
		for _, s := range []string{"1f1b", "gpipe", "fsdp", "dp", "weipipe-interleave"} {
			if w.MemoryBytes(s) > off.MemoryBytes(s) {
				t.Logf("%s: recompute increased memory", s)
				return false
			}
		}
		gpu := cluster.A800()
		return w.Times(gpu).B > off.Times(gpu).B
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: FLOPs are strictly monotone in each of G, S, H.
func TestFLOPsMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		w := randWorkload(seed)
		base := w.LayerFwdFLOPs()
		gG, gS, gH := w, w, w
		gG.G *= 2
		gS.S *= 2
		gH.H *= 2
		return gG.LayerFwdFLOPs() > base &&
			gS.LayerFwdFLOPs() > base &&
			gH.LayerFwdFLOPs() > base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: WeiPipe's chunk bytes never depend on G or S; activation
// boundary bytes scale exactly linearly in both.
func TestWireSizeProperties(t *testing.T) {
	f := func(seed uint64) bool {
		w := randWorkload(seed)
		gG, gS := w, w
		gG.G *= 2
		gS.S *= 2
		if gG.ChunkWeightBytes() != w.ChunkWeightBytes() ||
			gS.ChunkWeightBytes() != w.ChunkWeightBytes() {
			return false
		}
		return gG.ActBoundaryBytes() == 2*w.ActBoundaryBytes() &&
			gS.ActBoundaryBytes() == 2*w.ActBoundaryBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
