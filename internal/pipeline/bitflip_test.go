package pipeline

import (
	"fmt"
	"testing"
)

// A bit-flip schedule is a pure function of its seed: the same seed
// replays the same flips on every platform and build.
func TestGenBitFlipsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed                uint64
		ranks, iters, count int
		sites               []FlipSite
		want                string
	}{
		{1, 4, 8, 3, nil,
			"[{Rank:1 Iter:3 Site:weights Word:8196980753821780235 Bit:22} {Rank:0 Iter:5 Site:belt-weight Word:5266705631892356520 Bit:26} {Rank:1 Iter:6 Site:belt-grad Word:9778231605760336522 Bit:17}]"},
		{42, 3, 10, 4, []FlipSite{FlipWeights, FlipKernel},
			"[{Rank:1 Iter:5 Site:weights Word:6349198060258255764 Bit:26} {Rank:0 Iter:7 Site:weights Word:6270620877612482005 Bit:30} {Rank:2 Iter:7 Site:kernel Word:1723436047706647047 Bit:30} {Rank:2 Iter:8 Site:weights Word:9592552252706221495 Bit:27}]"},
		{0xdecafbad, 2, 2, 3, []FlipSite{FlipBeltGrad},
			"[{Rank:1 Iter:0 Site:belt-grad Word:16810863762624788273 Bit:16} {Rank:1 Iter:1 Site:belt-grad Word:12689125544637259924 Bit:25} {Rank:1 Iter:1 Site:belt-grad Word:4541148820163519935 Bit:24}]"},
	} {
		if got := fmt.Sprintf("%+v", GenBitFlips(tc.seed, tc.ranks, tc.iters, tc.count, tc.sites)); got != tc.want {
			t.Errorf("GenBitFlips(%#x, %d, %d, %d, %v) = %s, want %s", tc.seed, tc.ranks, tc.iters, tc.count, tc.sites, got, tc.want)
		}
	}
}
