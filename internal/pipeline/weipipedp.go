package pipeline

import (
	"fmt"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
)

// WeiPipeDP is hybrid 2-D parallelism: the world of P workers is split into
// P/wpSize data-parallel replicas, each an independent WeiPipe ring over
// wpSize workers. Replica g trains the microbatches g, g+G, g+2G, …; at the
// end of the iteration each chunk's owners — one per replica, at the same
// ring position — all-reduce their fully-accumulated gradient chunk before
// stepping, so the weight update is identical everywhere and matches the
// serial reference.
//
// This is the scale-out composition the paper's conclusion points toward:
// the WeiPipe rings keep their fixed-size weight traffic on the
// intra-replica links, and only the (equally weight-sized) owner gradients
// cross replicas once per iteration.
//
// The rank is its ring's WeiPipe trainer, whose owned chunk every replica
// holds a full copy of (so replica 0 alone covers the model), with one more
// reduction in the step; only TrainIteration is its own.
type WeiPipeDP struct {
	*WeiPipe
	world   Transport
	groups  int
	wpSize  int
	groupID int
}

// NewWeiPipeDP builds the hybrid trainer. wpSize must divide the world
// size; workers [g·wpSize, (g+1)·wpSize) form replica g, a
// weipipe-interleave ring.
func NewWeiPipeDP(t Transport, cfg model.Config, opts Options, wpSize int) (*WeiPipeDP, error) {
	world := t.Size()
	if wpSize <= 0 || world%wpSize != 0 {
		return nil, fmt.Errorf("pipeline: world %d not divisible into WeiPipe rings of %d", world, wpSize)
	}
	groups := world / wpSize
	gid := t.Rank() / wpSize
	innerRank := t.Rank() % wpSize

	ringRanks := make([]int, wpSize)
	for i := range ringRanks {
		ringRanks[i] = gid*wpSize + i
	}
	ring, err := comm.NewGroup(t, ringRanks, gid+1)
	if err != nil {
		return nil, err
	}
	// Buddy replication shadows the step from the pre-all-reduce retired
	// gradient; with a cross-replica reduce in the step path the replay
	// would diverge, so the hybrid disables it.
	opts.buddy = false
	w, err := NewWeiPipe(ring, cfg, opts, StrategyWeiPipeInterleave)
	if err != nil {
		return nil, err
	}
	if groups > 1 {
		crossRanks := make([]int, groups)
		for g := range crossRanks {
			crossRanks[g] = g*wpSize + innerRank
		}
		cross, err := comm.NewGroup(t, crossRanks, 64+innerRank)
		if err != nil {
			return nil, err
		}
		w.dpGroup = cross
	}
	return &WeiPipeDP{WeiPipe: w, world: t, groups: groups, wpSize: wpSize, groupID: gid}, nil
}

// TrainIteration implements Trainer.
func (h *WeiPipeDP) TrainIteration(batches []data.Batch) (float64, error) {
	n := len(batches)
	if n%(h.groups*h.wpSize) != 0 {
		return 0, fmt.Errorf("pipeline: %d microbatches not divisible by %d replicas × %d workers",
			n, h.groups, h.wpSize)
	}
	mine := data.Split(batches, h.groups)[h.groupID]
	h.globalN = n
	loss, err := h.WeiPipe.TrainIteration(mine)
	if err != nil {
		return 0, err
	}
	// The ring's loss is the replica's mean microbatch loss; average replicas.
	total, err := comm.AllReduceScalarSum(h.world, loss, (h.iter<<8)+7)
	if err != nil {
		return 0, err
	}
	return total / float64(h.world.Size()), nil
}

var _ Trainer = (*WeiPipeDP)(nil)
