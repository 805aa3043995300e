// Package order holds the program orders of the eight pipelined strategies:
// for every rank, the sequence of forward (F), backward-input (B) and
// backward-params (W) passes it runs in one training iteration. A program
// order is written here and nowhere else. The runtime (internal/pipeline)
// interprets the list, the simulator (internal/schedule) costs it, and the
// properties every schedule must have — each pass exactly once, F before B
// before W, bounded activations in flight, no wait cycle between ranks — are
// proved once, on the list, for all of them.
//
// The list is compute only. How a pass gets its inputs (which belt hop, which
// activation message) is still the reader's business: the belts of the
// weight-passing family and the stage-boundary sends of the activation-
// passing family are wired by the runtime and modelled by the simulator from
// the (MB, Chunk) each op names.
package order

import "fmt"

// Op is one compute pass of a rank's program.
type Op struct {
	// Phase is 'F' (forward), 'B' (backward: activation gradients) or 'W'
	// (backward: weight gradients).
	Phase byte
	// MB is the microbatch the pass works on. A weight-passing rank runs
	// microbatches k·p+rank, and that index is also the belt use index of
	// every chunk the microbatch consumes: use j of a chunk happens one hop
	// downstream of use j−1.
	MB int
	// Chunk is the weight chunk the pass runs — for the activation-passing
	// family, the stage, which is the rank itself.
	Chunk int
}

// String renders the op as phase, microbatch and chunk: F3/1.
func (o Op) String() string { return fmt.Sprintf("%c%d/%d", o.Phase, o.MB, o.Chunk) }

// Program returns the compute passes rank runs, in order, in one iteration of
// strategy on p ranks over n microbatches. Strategy names are the pipeline
// package's Strategy constants; "wzb2g" shares wzb2's program (the grouped
// belt changes how weights travel, not what a rank computes).
//
// Activation-passing family (gpipe, 1f1b, zb1, zb2): rank r is stage r and
// runs every microbatch through it; any n ≥ 0 is legal.
//
//   - gpipe: all forwards, then B and W fused, microbatches descending.
//   - 1f1b: min(p−1−r, n) warm-up forwards, then one forward and one fused
//     backward alternating, then the warm-up's backwards. At most warm-up+1
//     microbatches are forwarded and not yet backwarded.
//   - zb1: 1F1B's F and B order with W split off. The pending-W rule: after
//     a steady-state B, when more than max(warm-up, 1) B-passed microbatches
//     await their W, the oldest runs. The last stage (warm-up 0) therefore
//     lags its W by one microbatch — F0 B0 F1 B1 W0 … — rather than fusing.
//     Cool-down B passes run back to back and the remaining W passes drain
//     after them, oldest first.
//   - zb2: as zb1 with no bound: every W runs after the last B, oldest first.
//
// Weight-passing family (weipipe-naive, weipipe-interleave, wzb1, wzb2): n
// must be a multiple of p; a rank runs n/p microbatches through all p chunks.
//
//   - weipipe-naive: per microbatch, F over chunks ascending, then B and W
//     fused over chunks descending. One microbatch in flight.
//   - weipipe-interleave: turn k pairs, step by step, the F of microbatch k
//     on chunk s with the fused B and W of microbatch k−1 on chunk p−1−s.
//     Two microbatches in flight.
//   - wzb1: Interleave's F and B order with each W delayed until the next B
//     has run (one pending W), so a microbatch's last W lands one step into
//     the following turn: three microbatches in flight.
//   - wzb2: Interleave's F and B order; a microbatch's W passes run after its
//     last B, chunks ascending, so chunk gradients complete and retire as
//     early as possible. Two microbatches in flight.
func Program(strategy string, rank, p, n int) ([]Op, error) {
	if p < 1 || rank < 0 || rank >= p || n < 0 {
		return nil, fmt.Errorf("order: rank %d of %d ranks over %d microbatches is not a program", rank, p, n)
	}
	if strategy == "wzb2g" {
		strategy = "wzb2"
	}
	switch strategy {
	case "gpipe", "1f1b", "zb1", "zb2":
		return stageProgram(strategy, rank, p, n), nil
	case "weipipe-naive", "weipipe-interleave", "wzb1", "wzb2":
		if n%p != 0 {
			return nil, fmt.Errorf("order: %s needs microbatch count divisible by %d workers, got %d", strategy, p, n)
		}
		return beltProgram(strategy, rank, p, n), nil
	}
	return nil, fmt.Errorf("order: strategy %q has no program order", strategy)
}

// Strategies lists the strategies Program knows, one name per order.
func Strategies() []string {
	return []string{"gpipe", "1f1b", "zb1", "zb2", "weipipe-naive", "weipipe-interleave", "wzb1", "wzb2"}
}

// warmupOf returns the number of forwards stage rank runs before its first
// backward under 1f1b, zb1 and zb2.
func warmupOf(rank, p, n int) int { return min(p-1-rank, n) }

// stageProgram writes the activation-passing orders.
func stageProgram(strategy string, rank, p, n int) []Op {
	ops := make([]Op, 0, 3*n)
	emit := func(phase byte, m int) { ops = append(ops, Op{Phase: phase, MB: m, Chunk: rank}) }
	if strategy == "gpipe" {
		for m := 0; m < n; m++ {
			emit('F', m)
		}
		for m := n - 1; m >= 0; m-- {
			emit('B', m)
			emit('W', m)
		}
		return ops
	}
	warmup := warmupOf(rank, p, n)
	// bound is the pending-W rule: how many B-passed microbatches may await
	// their W while forwards remain. 1F1B fuses (0); ZB2 never drains early.
	bound := 0
	switch strategy {
	case "zb1":
		bound = max(warmup, 1)
	case "zb2":
		bound = n
	}
	for m := 0; m < warmup; m++ {
		emit('F', m)
	}
	oldest := 0 // microbatches below it have had their W
	for m := warmup; m < n; m++ {
		emit('F', m)
		emit('B', m-warmup)
		if m-warmup+1-oldest > bound {
			emit('W', oldest)
			oldest++
		}
	}
	for m := n - warmup; m < n; m++ {
		emit('B', m)
		if bound == 0 {
			emit('W', m)
			oldest++
		}
	}
	for ; oldest < n; oldest++ {
		emit('W', oldest)
	}
	return ops
}

// beltProgram writes the weight-passing orders.
func beltProgram(strategy string, rank, p, n int) []Op {
	ops := make([]Op, 0, 3*n)
	emit := func(phase byte, k, c int) { ops = append(ops, Op{Phase: phase, MB: k*p + rank, Chunk: c}) }
	rounds := n / p
	if strategy == "weipipe-naive" {
		for k := 0; k < rounds; k++ {
			for c := 0; c < p; c++ {
				emit('F', k, c)
			}
			for c := p - 1; c >= 0; c-- {
				emit('B', k, c)
				emit('W', k, c)
			}
		}
		return ops
	}
	// The three interleaved variants share the F and B order and differ in
	// where a B's W goes: straight after it (lag 0), after the next B (lag
	// 1), or — wzb2 — after the microbatch's last B, chunks ascending.
	lag := 0
	if strategy == "wzb1" {
		lag = 1
	}
	sweepW := strategy == "wzb2"
	var pending []Op // W passes of the B passes that ran, oldest first
	for k := 0; k <= rounds; k++ {
		for step := 0; step < p; step++ {
			if k < rounds {
				emit('F', k, step)
			}
			if k == 0 {
				continue
			}
			c := p - 1 - step
			emit('B', k-1, c)
			if sweepW {
				continue
			}
			pending = append(pending, Op{Phase: 'W', MB: (k-1)*p + rank, Chunk: c})
			if len(pending) > lag {
				ops = append(ops, pending[0])
				pending = pending[1:]
			}
		}
		if sweepW && k >= 1 {
			for c := 0; c < p; c++ {
				emit('W', k-1, c)
			}
		}
	}
	ops = append(ops, pending...)
	return ops
}
