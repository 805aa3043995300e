package launch

import (
	"fmt"
	"testing"
)

// A soak schedule is a pure function of its seed: the same seed replays
// the same faults on every platform and build.
func TestGenSchedulePinned(t *testing.T) {
	for _, tc := range []struct {
		seed                 uint64
		ranks, iters, events int
		want                 string
	}{
		{1, 4, 8, 3,
			"[{AtIter:2 Action:stall Target:3 Dur:4s Peers:[]} {AtIter:2 Action:kill Target:1 Dur:0s Peers:[]}]"},
		{7, 5, 12, 4,
			"[{AtIter:9 Action:stall Target:4 Dur:4s Peers:[]} {AtIter:5 Action:stall Target:4 Dur:248ms Peers:[]} {AtIter:8 Action:stall Target:0 Dur:133ms Peers:[]} {AtIter:6 Action:kill Target:0 Dur:0s Peers:[]}]"},
		{0xdecafbad, 6, 20, 6,
			"[{AtIter:14 Action:partition Target:1 Dur:3s Peers:[0 2 3 4 5]} {AtIter:13 Action:stall Target:3 Dur:241ms Peers:[]} {AtIter:2 Action:kill Target:1 Dur:0s Peers:[]} {AtIter:6 Action:partition Target:4 Dur:3s Peers:[0 1 2 3 5]} {AtIter:3 Action:stall Target:3 Dur:107ms Peers:[]} {AtIter:3 Action:kill Target:4 Dur:0s Peers:[]}]"},
	} {
		if got := fmt.Sprintf("%+v", GenSchedule(tc.seed, tc.ranks, tc.iters, tc.events)); got != tc.want {
			t.Errorf("GenSchedule(%#x, %d, %d, %d) = %s, want %s", tc.seed, tc.ranks, tc.iters, tc.events, got, tc.want)
		}
	}
}
