package launch

import (
	"fmt"

	"weipipe/internal/checkpoint"
	"weipipe/internal/pipeline"
)

// ReplayOracle reproduces, entirely in-process and fault-free, the exact
// training trajectory a supervised run took through its incarnations, and
// returns the per-iteration losses plus the final assembled weights.
//
// The trajectory of a segment is fully determined by (world size, start
// iteration, starting snapshot): data is a pure function of the global
// iteration number, and the arithmetic of spec.Strategy depends only on the
// world size. So the oracle walks the epoch history, trains each segment at
// its world size, and carries a snapshot across the boundary exactly where
// the real run harvested (or checkpoint-loaded) one. Bit-identity between
// this replay and the cross-process run is the soak harness's correctness
// criterion: any frame loss, re-admission bug, or partition leak shows up
// as a diverging weight hash.
func ReplayOracle(spec pipeline.RunSpec, history []EpochEvent) ([]float64, []float32, error) {
	if len(history) == 0 {
		return nil, nil, fmt.Errorf("launch: empty history")
	}
	losses := make([]float64, spec.Iters)
	var snap *checkpoint.Snapshot
	// The replay is fault-free and in process: no TCP, no chaos, no file
	// read or written, no restart.
	seg := spec
	seg.TCP, seg.Chaos, seg.CheckpointPath, seg.MaxRestarts, seg.Spares = false, nil, "", 0, 0

	for i, ev := range history {
		// The segment ends where the next incarnation starts — not at
		// spec.Iters — because a failure may roll back past iterations the
		// previous segment already ran (checkpoint restart) or cut them at
		// the harvest point.
		end := spec.Iters
		if i+1 < len(history) {
			end = history[i+1].StartIter
		}
		if end < ev.StartIter {
			return nil, nil, fmt.Errorf("launch: epoch %d rolls back from %d to %d across the boundary",
				ev.Epoch, ev.StartIter, end)
		}
		if end < spec.Iters && spec.Warmup > 0 {
			// A segment is a shorter run, and the schedule's length is the
			// run's.
			return nil, nil, fmt.Errorf("launch: cannot replay a warm-up schedule across incarnations")
		}
		// One call into the shared loop per segment, seeded with the
		// previous segment's end state. Checkpointing every `end`
		// iterations makes the segment end its one capture; a zero-length
		// segment takes none and hands its seed on unchanged.
		seg.World, seg.Iters, seg.CheckpointEvery = ev.World, end, end
		res, err := pipeline.RunResilient(seg, pipeline.RunHooks{Batches: spec.Batches(), Snapshot: snap})
		if err != nil {
			return nil, nil, fmt.Errorf("launch: oracle epoch %d: %w", ev.Epoch, err)
		}
		copy(losses[ev.StartIter:end], res.Losses[ev.StartIter:])
		if i+1 == len(history) {
			return losses, res.Weights, nil
		}
		snap = res.Checkpoint
	}
	return nil, nil, fmt.Errorf("launch: unreachable")
}
