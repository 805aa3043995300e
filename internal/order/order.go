// Package order holds the program orders of the eight pipelined strategies:
// for every rank, the sequence of forward (F), backward-input (B) and
// backward-params (W) passes it runs in one training iteration. A program
// order is written here and nowhere else. The runtime (internal/pipeline)
// interprets the list, the simulator (internal/schedule) costs it, and the
// properties every schedule must have — each pass exactly once, F before B
// before W, bounded activations in flight, no wait cycle between ranks — are
// proved once, on the list, for all of them.
//
// The list is compute only. Which passes fetch weights and which run on a
// copy kept from the chunk's previous pass is written here once: the keep
// rule for FSDP's gathers (FSDP), and for the weight-passing family's belts
// the keep rule widened to each rank's two-copy budget (BeltPlan). The
// weight-passing family's messages are written here too: Wiring
// lists every weight, shard-exchange, gradient and retire message of one
// iteration, with its sender, receiver and the sender's pass that sends it,
// for the flat ring and the grouped belt alike. The runtime sends and
// receives the rows, and the simulator prices and paces them. The
// activation-passing family's stage-boundary sends stay the runtime's, and
// the simulator's to model, from the (MB, Chunk) each op names.
package order

import (
	"fmt"
	"slices"
)

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

// Use is one pass of a rank's weight plan (BeltPlan, FSDP) and what it does
// with the weights of the chunk it runs.
type Use struct {
	// Op is the pass. In an FSDP plan Phase 'B' is the B pass and the W
	// pass fused, MB the rank's local microbatch and Chunk the module.
	Op
	// Gather: the chunk's weights are not held when the pass starts; the
	// rank fetches a copy first — off a belt, or by an all-gather.
	Gather bool
	// Keep: the pass keeps its copy of the weights for the chunk's next
	// use instead of dropping it.
	Keep bool
}

// keep applies the keep rule to uses, a rank's passes in program order: a
// pass keeps its copy of the weights until the chunk's next use when the
// passes in between use at most one other chunk, and a pass gathers exactly
// when no copy was kept for it. W passes are transparent: they bind
// gradient buffers, not weights, so they neither gather nor keep nor count
// as a use. Nothing is kept past the list, whose step changes the weights.
//
// So a rank never holds more than two copies: if two chunks were kept over
// the same pass, the one kept later would have a use inside the other's gap
// besides that pass's chunk.
func keep(uses []Use) {
	kept := make(map[int]bool)
	for k := range uses {
		u := &uses[k]
		if u.Phase == 'W' {
			continue
		}
		u.Gather = !kept[u.Chunk]
		other := -1 // the one other chunk used since this pass
		for _, v := range uses[k+1:] {
			if v.Phase == 'W' {
				continue
			}
			if v.Chunk == u.Chunk {
				u.Keep = true
				break
			}
			if other >= 0 && v.Chunk != other {
				break
			}
			other = v.Chunk
		}
		kept[u.Chunk] = u.Keep
	}
}

// keepPlan returns the keep rule's plan of rank under a weight-passing
// strategy: its Program with the keep rule applied. A pass that gathers
// takes its chunk off the belt of its phase (forward for F, backward for B);
// one that does not runs on the copy the chunk's previous pass kept. Every
// rank's program is the same list of (phase, round, chunk) with its own
// microbatches, so this plan is too: each round of a chunk on a belt is
// served off the belt on every rank or on none. The rule keeps chunk p−1
// from each F to the B of the same microbatch — the forward→backward
// turnaround — and, from two rounds up, a pair of chunks whose F and B
// passes interleave in the steady state.
func keepPlan(strategy string, rank, p, n int) ([]Use, error) {
	switch strategy {
	case "gpipe", "1f1b", "zb1", "zb2":
		return nil, fmt.Errorf("order: %s passes activations, not weights", strategy)
	}
	prog, err := Program(strategy, rank, p, n)
	if err != nil {
		return nil, err
	}
	uses := make([]Use, len(prog))
	for i, op := range prog {
		uses[i].Op = op
	}
	keep(uses)
	return uses, nil
}

// BeltPlan returns the weight plan of rank under a weight-passing strategy
// on belts of m-rank groups (m = 1: the flat ring). It starts from the keep
// rule's plan (keepPlan) and keeps every keep of it. It then widens it
// (widen): walking the rank's program, each further F or B copy of a chunk
// the rank does not hold is kept until the chunk's next use whenever no F or
// B pass in between would then have more than two copies of such chunks
// bound or kept. A held chunk (Holds) costs no slot. Last come the early rows
// Wiring drops. An early row is one its sender sends before it takes any row
// — an iteration-start injection, or the relay of a pass the sender serves
// from its own copy with no wait before it — so it waits in its receiver's
// mailbox from the start of the iteration. When the receiver has already run
// a use of the row's chunk, the latest such use keeps its copy for the row's
// use instead, which is therefore held no longer than the row would have
// waited. Ranks hold different chunks, so their plans differ.
func BeltPlan(strategy string, rank, p, n, m int) ([]Use, error) {
	b, err := wire(strategy, p, n, m, false)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("order: rank %d of %d ranks has no plan", rank, p)
	}
	return b.plans[rank], nil
}

// widen keeps, on top of a rank's keep-rule plan uses, every further copy
// that fits the two-copy budget (BeltPlan): in program order, an F or B pass
// on a chunk the rank does not hold (held) that drops its copy keeps it for
// the chunk's next use when every F or B pass in between has at most one
// such copy bound or kept; nothing is kept past a chunk's last F or B pass.
// The walk is greedy and one pass: a keep it refuses would still overfill a
// pass once the later keeps are in, so no single further keep fits.
func widen(uses []Use, held func(c int) bool) {
	next := make([]int, len(uses)) // each F or B pass's chunk's next F or B pass, or −1
	last := make(map[int]int)
	for i := len(uses) - 1; i >= 0; i-- {
		next[i] = -1
		if u := uses[i]; u.Phase != 'W' {
			if k, ok := last[u.Chunk]; ok {
				next[i] = k
			}
			last[u.Chunk] = i
		}
	}
	load := make([]int, len(uses)) // per F or B pass, the unheld copies bound or kept over it
	hold := func(i int) {
		for k := i + 1; k < next[i]; k++ {
			load[k]++
		}
	}
	for i, u := range uses {
		if u.Phase == 'W' || held(u.Chunk) {
			continue
		}
		load[i]++
		if u.Keep {
			hold(i)
		}
	}
	for i := range uses {
		u := &uses[i]
		if u.Phase == 'W' || u.Keep || next[i] < 0 || held(u.Chunk) {
			continue
		}
		fits := true
		for k := i + 1; k < next[i]; k++ {
			fits = fits && (uses[k].Phase == 'W' || load[k] < 2)
		}
		if fits {
			u.Keep, uses[next[i]].Gather = true, false
			hold(i)
		}
	}
}

// Shipped tabulates the keep rule's belt segments of a weight-passing
// strategy on p ranks over n microbatches: Shipped(…)[b][c][k] reports
// whether round k of chunk c travels on belt b — 0 the forward belt F passes
// take their chunk off, 1 the backward belt of the B passes — or is served
// from kept copies on every rank. It is the keep rule's table, the same for
// every rank. The weight plans (BeltPlan) keep more than the rule on some
// ranks and not on others, so a segment may ship to one rank and not
// another, but it still counts as shipped here: Deferred, GradChain and
// every gradient row read this table, so the gradient side is the keep
// rule's whatever copies the weight plans keep.
func Shipped(strategy string, p, n int) ([2][][]bool, error) {
	plan, err := keepPlan(strategy, 0, p, n)
	if err != nil {
		return [2][][]bool{}, err
	}
	return shipped(plan, p), nil
}

// shipped tabulates a keep-rule plan by segment (Shipped); any rank's plan
// gives the table.
func shipped(plan []Use, p int) [2][][]bool {
	rounds := 0
	for _, u := range plan {
		rounds = max(rounds, u.MB/p+1)
	}
	var ships [2][][]bool
	for b := range ships {
		ships[b] = make([][]bool, p)
		for c := range ships[b] {
			ships[b][c] = make([]bool, rounds)
		}
	}
	for _, u := range plan {
		switch u.Phase {
		case 'F':
			ships[0][u.Chunk][u.MB/p] = u.Gather
		case 'B':
			ships[1][u.Chunk][u.MB/p] = u.Gather
		}
	}
	return ships
}

// Holds reports whether rank holds chunk c's weights for the whole
// iteration on a weight-passing ring of p ranks: on the flat belt (m ≤ 1) the
// owner, rank (c−1) mod p, whose master copy does not change until the step;
// on the grouped belt of m-rank groups the member c mod m of every group,
// which caches the chunk from the iteration's shard exchange. A holder never
// takes c off a belt: it serves its own uses of c and relays from its copy,
// and its belt predecessor sends it nothing.
func Holds(rank, c, p, m int) bool {
	if m <= 1 {
		return rank == (c-1+p)%p
	}
	return rank%m == c%m
}

// Deferred reports whether round k of chunk c's gradient stays where it was
// made under a plan's belt table ships (Shipped): a round the backward belt
// does not ship, because every rank runs it on a kept copy, unless it is the
// last round. In a deferred round each rank holds its W pass's partial of
// D_c and its next W pass on c, one round later, accumulates into it; the
// round sends no gradient message.
func Deferred(ships [2][][]bool, c, k int) bool {
	rounds := ships[1][c]
	return k < len(rounds)-1 && !rounds[k]
}

// GradChain returns the belt uses whose W passes feed chunk c's gradient
// accumulator D_c on a weight-passing ring of p ranks over n microbatches,
// in use order, under the plan's belt table ships (Shipped): every use but
// the owner's (Holds with m = 1) and those of deferred rounds (Deferred).
// Use j runs on rank j mod p. The owner accumulates its own W passes for c
// in place and never ships them, and a deferred use's partial waits on its
// rank for that rank's next use. D_c visits the listed uses in order — one
// hop from each use's rank to the next one's, which bridges the owner
// (o−1 → o+1), or none when both run on one rank, as every use does at
// p=2 — and the last use's rank retires the sum to the owner. The last round
// is never deferred, so a chunk's gradient travels (p−1)·(n/p − d) messages
// an iteration for p ≥ 3, where d counts its deferred rounds, one at p=2 and
// none at p=1.
func GradChain(c, p, n int, ships [2][][]bool) []int {
	chain := make([]int, 0, n-n/p)
	for j := 0; j < n; j++ {
		if !Holds(j%p, c, p, 1) && !Deferred(ships, c, j/p) {
			chain = append(chain, j)
		}
	}
	return chain
}

// GradSlots returns the most gradient buffers of chunks it does not own
// that a rank holds at once between its W passes under a weight-passing
// strategy on p ranks over n microbatches, over every rank: a W pass holds
// its partial of D_c for the rank's next W pass on c when its use is off
// c's gradient chain (GradChain: a deferred round) or the chain's next use
// runs on the rank too (p=2). The owner's accumulator is its own chunk's
// and not counted.
func GradSlots(strategy string, p, n int) (int, error) {
	most := 0
	for rank := 0; rank < p; rank++ {
		plan, err := keepPlan(strategy, rank, p, n)
		if err != nil {
			return 0, err
		}
		ships := shipped(plan, p)
		chains := make([][]int, p)
		for c := range chains {
			chains[c] = GradChain(c, p, n, ships)
		}
		held := make(map[int]bool) // the chunks whose partial the rank holds
		for _, u := range plan {
			if u.Phase != 'W' {
				continue
			}
			c, chain := u.Chunk, chains[u.Chunk]
			if i := slices.Index(chain, u.MB); !Holds(rank, c, p, 1) && (i < 0 || i+1 < len(chain) && chain[i+1]%p == rank) {
				held[c] = true
			} else {
				delete(held, c)
			}
			most = max(most, len(held))
		}
	}
	return most, nil
}

// FSDP returns the passes an FSDP rank runs in one iteration over nLocal
// microbatches of a model of modules modules: per microbatch, F over the
// modules ascending, then B+W descending, with the keep rule applied to the
// gathers. It keeps the last two modules across each forward→backward
// turnaround and the first two across each microbatch boundary, which for
// modules ≥ 3 is 2·modules·nLocal − 4·nLocal + 2 gathers an iteration
// instead of 2·modules·nLocal.
func FSDP(modules, nLocal int) []Use {
	uses := make([]Use, 0, 2*modules*nLocal)
	for m := 0; m < nLocal; m++ {
		for i := 0; i < modules; i++ {
			uses = append(uses, Use{Op: Op{Phase: 'F', MB: m, Chunk: i}})
		}
		for i := modules - 1; i >= 0; i-- {
			uses = append(uses, Use{Op: Op{Phase: 'B', MB: m, Chunk: i}})
		}
	}
	keep(uses)
	return uses
}

// Msg is one point-to-point message of a weight-passing iteration: a row of
// Wiring.
type Msg struct {
	// Kind is what travels: 'F' or 'B' a copy of the chunk's weights on the
	// forward or backward belt, 'X' a hop of the grouped belt's shard
	// exchange, 'D' the chunk's gradient accumulator D_c, 'R' D_c's retire to
	// the chunk's owner.
	Kind  byte
	Chunk int
	// Use is the belt use the message serves — 'F', 'B': the pass that runs
	// on the copy; 'D': the gradient chain's use that folds D_c in — or, for
	// 'X', the hop: 0 from the owner into its own group's holder, s from the
	// holder s−1 groups on into the next one. 'R' carries 0.
	Use int
	// Src and Dst are the sending and the receiving rank, on the ring.
	Src, Dst int
	// Group: the message travels on the sender's group sub-transport (the
	// grouped belt's circulation inside a group).
	Group bool
	// Pass is the index, in Src's BeltPlan, of the pass that sends the
	// message, or −1 for the start of the iteration. An F or B pass sends at
	// its start, with its own copy in hand; a W pass sends after it.
	Pass int
}

// Injects reports whether a weight row enters its belt from the sender's
// resident copy, on belts of m-rank groups: the flat owner's injection at
// use 0 (m = 1), or a grouped holder's into its group's first rank. Every
// other 'F' or 'B' row relays the copy its sender's pass runs on.
func (msg Msg) Injects(m int) bool {
	return (msg.Kind == 'F' || msg.Kind == 'B') && (msg.Pass < 0 || m > 1 && msg.Dst%m == 0)
}

// Wiring returns every message of one iteration of a weight-passing strategy
// on p ranks over n microbatches, with the weight belts circulating in groups
// of m ranks (m = 1: the flat ring). It is built from the ranks' weight plans
// (BeltPlan), Shipped, Holds, Deferred and GradChain alone:
//
//   - 'X', grouped only: chunk c's owner hands the chunk to its own group's
//     holder, unless it holds it, and the holders store-and-forward it
//     around the holder ring, one hop per group boundary, at iteration
//     start.
//   - 'F' and 'B': every use that its rank's plan gathers, of a chunk the
//     rank does not hold (Holds), takes one copy. On the flat ring use 0
//     comes from the owner at iteration start and use j from the pass on
//     use j−1. On the grouped belt a group's first rank takes round 0 from
//     the group's holder at iteration start and round k from the holder's
//     pass on round k−1; the other members take it from the member before.
//     An early weight row (BeltPlan) into a rank that has already run a use
//     of its chunk is dropped: that use's copy serves the row's use.
//   - 'D': D_c hops along GradChain from each use's W pass to the next use's
//     rank, where the two differ. The gradient side is the keep rule's
//     (Shipped), whatever copies the weight plans keep.
//   - 'R': the chain's last use retires D_c to the owner.
//
// The exchange comes first, hop by hop and, within a hop, chunk by chunk:
// each rank runs its iteration-start rows in table order, and a hop waits
// only for hops before it, so the order cannot deadlock. The weight rows
// follow, per chunk and per use, forward before backward, and the gradient
// comes last. Past the exchange the order is neutral: a rank sends its other
// rows in its program order, and the simulator runs each link's rows in
// their sender's issue order whatever order the table lists them in.
func Wiring(strategy string, p, n, m int) ([]Msg, error) {
	b, err := wire(strategy, p, n, m, false)
	if err != nil {
		return nil, err
	}
	return b.rows, nil
}

// InHand returns, per rank and per pass of its weight plan (BeltPlan), the
// copies of chunks the rank does not hold (Holds) that it has in hand while
// the pass runs, under a weight-passing strategy on belts of m-rank groups:
// the one an F or B pass binds, those kept over the pass, and the early rows
// (BeltPlan) into the rank that wait in its mailbox for a later pass.
func InHand(strategy string, p, n, m int) ([][]int, error) {
	b, err := wire(strategy, p, n, m, false)
	if err != nil {
		return nil, err
	}
	return inHand(b.plans, b.early, p, m), nil
}

// inHand is InHand's walk over the ranks' plans and the early rows, which
// wait in their receivers' mailboxes from the start of the iteration until
// the pass that takes them.
func inHand(plans [][]Use, early []Msg, p, m int) [][]int {
	counts := make([][]int, len(plans))
	for rank, plan := range plans {
		takenAt := make(map[Op]int, len(plan))
		for i, u := range plan {
			takenAt[u.Op] = i
		}
		var pending []int
		for _, r := range early {
			if r.Dst == rank {
				pending = append(pending, takenAt[Op{Phase: r.Kind, MB: r.Use, Chunk: r.Chunk}])
			}
		}
		counts[rank] = make([]int, len(plan))
		kept := make(map[int]bool)
		for i, u := range plan {
			held := Holds(rank, u.Chunk, p, m)
			if u.Phase != 'W' {
				delete(kept, u.Chunk)
				if !held {
					counts[rank][i]++
				}
			}
			counts[rank][i] += len(kept)
			for _, at := range pending {
				if at > i {
					counts[rank][i]++
				}
			}
			if u.Phase != 'W' && u.Keep && !held {
				kept[u.Chunk] = true
			}
		}
	}
	return counts
}

// wiring is one iteration's messages worked out: the rows Wiring returns,
// the early weight rows among them and those it dropped, and the plans and
// pass indices they were built from.
type wiring struct {
	plans                [][]Use    // per rank, the weight plan (BeltPlan)
	pass                 map[Op]int // every pass's index in its rank's plan
	rows, early, dropped []Msg
}

// before returns the index of the last F or B pass on pass i's chunk that
// rank runs before pass i, or −1.
func (b *wiring) before(rank, i int) int {
	plan := b.plans[rank]
	for k := i - 1; k >= 0; k-- {
		if plan[k].Phase != 'W' && plan[k].Chunk == plan[i].Chunk {
			return k
		}
	}
	return -1
}

// wire builds the iteration's wiring (Wiring) — or, with rule, the keep
// rule's: every rank runs its keep-rule plan (keepPlan), unwidened, and no
// early row is dropped.
func wire(strategy string, p, n, m int, rule bool) (*wiring, error) {
	if m < 1 || p%m != 0 {
		return nil, fmt.Errorf("order: groups of %d ranks do not tile a ring of %d", m, p)
	}
	b := &wiring{plans: make([][]Use, p), pass: make(map[Op]int, 3*n)}
	for r := 0; r < p; r++ {
		plan, err := keepPlan(strategy, r, p, n)
		if err != nil {
			return nil, err
		}
		for i, u := range plan {
			b.pass[u.Op] = i
		}
		if !rule {
			widen(plan, func(c int) bool { return Holds(r, c, p, m) })
		}
		b.plans[r] = plan
	}
	ships, err := Shipped(strategy, p, n)
	if err != nil {
		return nil, err
	}
	owner := func(c int) int { return (c - 1 + p) % p }
	holder := func(g, c int) int { return g*m + c%m }
	var msgs []Msg
	if groups := p / m; m > 1 {
		src := make([]int, p) // the rank that last cached each chunk
		for c := range src {
			src[c] = owner(c)
		}
		for s := 0; s < groups; s++ {
			for c := 0; c < p; c++ {
				if dst := holder((owner(c)/m+s)%groups, c); dst != src[c] {
					msgs = append(msgs, Msg{Kind: 'X', Chunk: c, Use: s, Src: src[c], Dst: dst, Pass: -1})
					src[c] = dst
				}
			}
		}
	}
	weights := len(msgs)
	for c := 0; c < p; c++ {
		for j := 0; j < n; j++ {
			for _, phase := range [2]byte{'F', 'B'} {
				dst, round := j%p, j/p
				if !b.plans[dst][b.pass[Op{Phase: phase, MB: j, Chunk: c}]].Gather || Holds(dst, c, p, m) {
					continue
				}
				msg := Msg{Kind: phase, Chunk: c, Use: j, Src: (dst - 1 + p) % p, Dst: dst, Group: m > 1, Pass: -1}
				switch {
				case m == 1 && j == 0:
					msg.Src = owner(c)
				case m == 1 || dst%m != 0:
					msg.Pass = b.pass[Op{Phase: phase, MB: j - 1, Chunk: c}]
				default:
					msg.Src = holder(dst/m, c)
					if round > 0 {
						msg.Pass = b.pass[Op{Phase: phase, MB: (round-1)*p + msg.Src, Chunk: c}]
					}
				}
				msgs = append(msgs, msg)
			}
		}
	}
	grads := len(msgs)
	for c := 0; c < p; c++ {
		chain := GradChain(c, p, n, ships)
		for i, j := range chain {
			msg := Msg{Kind: 'R', Chunk: c, Src: j % p, Dst: owner(c), Pass: b.pass[Op{Phase: 'W', MB: j, Chunk: c}]}
			if i+1 < len(chain) {
				msg.Kind, msg.Use, msg.Dst = 'D', chain[i+1], chain[i+1]%p
			}
			if msg.Dst != msg.Src {
				msgs = append(msgs, msg)
			}
		}
	}
	// A rank's first wait is its first pass that takes a weight or
	// gradient row; a row its sender sends before then is early.
	wait := make([]int, p)
	for r := range wait {
		wait[r] = len(b.plans[r])
	}
	for _, r := range msgs[weights:] {
		if r.Kind != 'R' {
			phase := r.Kind
			if phase == 'D' {
				phase = 'W'
			}
			wait[r.Dst] = min(wait[r.Dst], b.pass[Op{Phase: phase, MB: r.Use, Chunk: r.Chunk}])
		}
	}
	for i, r := range msgs {
		if i >= weights && i < grads && r.Pass < wait[r.Src] {
			at := b.pass[Op{Phase: r.Kind, MB: r.Use, Chunk: r.Chunk}]
			if k := b.before(r.Dst, at); k >= 0 && !rule {
				b.plans[r.Dst][k].Keep, b.plans[r.Dst][at].Gather = true, false
				b.dropped = append(b.dropped, r)
				continue
			}
			b.early = append(b.early, r)
		}
		b.rows = append(b.rows, r)
	}
	return b, nil
}
