package launch

import (
	"time"

	"weipipe/internal/tensor"
)

// GenSchedule derives a randomized fault schedule from seed: up to events
// faults mixing SIGKILLs, survivable stalls, lethal stalls (long enough
// that the detector buries the rank), and timed one-sided partitions.
//
// The schedule is constrained so a run with `ranks` initial ranks and the
// supervisor's repair policies can always finish: at most ranks-2 faults
// are lethal (kill or long stall), so even with zero spares the world can
// shrink past every casualty and still hold ≥2 ranks. Partition durations
// exceed the peer-death budget, so the victim's peers bury it — lethal for
// the victim's membership but recoverable, and the fault the epoch-fencing
// guarantee ("never two progressing segments") is proven against.
//
// The draws come from tensor.RNG, so the same seed yields the same
// schedule on every platform (the soak harness's reproducibility contract).
func GenSchedule(seed uint64, ranks, iters, events int) []FaultEvent {
	r := tensor.NewRNG(seed)
	lethalBudget := ranks - 2
	var out []FaultEvent
	for i := 0; i < events; i++ {
		// Fire in the first two-thirds of the run so repair has room to
		// finish. Iterations 0–1 stay clean: every rank dials in and (with
		// CheckpointEvery=1) at least one coordinated checkpoint lands on
		// disk before any fault, so the restart fallback always has a file.
		at := 2 + r.Intn(max(1, 2*iters/3))
		target := r.Intn(ranks)
		switch r.Intn(4) {
		case 0: // SIGKILL mid-iteration
			if lethalBudget <= 0 {
				continue
			}
			lethalBudget--
			out = append(out, FaultEvent{AtIter: at, Action: "kill", Target: target})
		case 1: // survivable stall: shorter than the death budget
			out = append(out, FaultEvent{AtIter: at, Action: "stall", Target: target,
				Dur: time.Duration(50+r.Intn(200)) * time.Millisecond})
		case 2: // lethal stall: the detector buries the rank before SIGCONT
			if lethalBudget <= 0 {
				continue
			}
			lethalBudget--
			out = append(out, FaultEvent{AtIter: at, Action: "stall", Target: target,
				Dur: 4 * time.Second})
		default: // one-sided partition toward every peer
			if lethalBudget <= 0 {
				continue
			}
			lethalBudget--
			var peers []int
			for p := 0; p < ranks; p++ {
				if p != target {
					peers = append(peers, p)
				}
			}
			out = append(out, FaultEvent{AtIter: at, Action: "partition", Target: target,
				Dur: 3 * time.Second, Peers: peers})
		}
	}
	return out
}
