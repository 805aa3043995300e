// Package schedule compiles each parallel-training strategy into a
// discrete-event task graph for internal/sim: per-worker compute ops in the
// strategy's program order, link tasks for every point-to-point transfer on
// the ring, and fabric tasks for ring collectives. Task durations come from
// the analytic cost model and the cluster topology. The pipelined
// strategies' program orders are not written here: the builders cost the
// per-rank op lists of internal/order, the same lists the runtime interprets.
package schedule

import (
	"fmt"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/order"
	"weipipe/internal/sim"
)

// Spec bundles the inputs of a schedule build.
type Spec struct {
	W   cost.Workload
	GPU cluster.GPUSpec
	Top cluster.Topology
	// WireFP32 doubles every wire payload, ablating the paper's fp16/bf16
	// wire format against full-precision transfers.
	WireFP32 bool
	// BeltBuffers overrides WeiPipe's per-worker, per-belt chunk buffer
	// depth (default 2). Deeper buffers trade memory for belt slack.
	BeltBuffers int
	// TerminalGradAllReduce replaces WeiPipe's in-transit gradient
	// accumulation with an end-of-iteration ring all-reduce of the full
	// gradient — the design alternative the D belt avoids.
	TerminalGradAllReduce bool
	// LinkScale multiplies every point-to-point link duration (0 means 1,
	// the uncalibrated model). It is the calibration knob a traced run
	// feeds: the ratio of measured to predicted exposed communication
	// (cost.Calibration.SuggestedLinkScale) expresses how much of the
	// modelled link time the runtime actually exposes to compute.
	LinkScale float64
}

// wireScale returns the payload multiplier of the wire-format ablation.
func (s Spec) wireScale() float64 {
	if s.WireFP32 {
		return 2
	}
	return 1
}

// linkScale returns the calibrated link-duration multiplier.
func (s Spec) linkScale() float64 {
	if s.LinkScale > 0 {
		return s.LinkScale
	}
	return 1
}

// Strategies lists every strategy Build compiles, in the order reports list
// them. "serial" runs only as a functional runner and has no schedule.
func Strategies() []string {
	return []string{
		"gpipe", "1f1b", "zb1", "zb2", "dp", "fsdp",
		"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2", "wzb2g",
	}
}

// Build compiles the named strategy, one of Strategies. Strategy names match
// the pipeline package's Strategy constants.
func Build(strategy string, spec Spec) ([]sim.Task, error) {
	spec.W = spec.W.WithDefaults()
	if spec.W.P != spec.Top.P {
		return nil, fmt.Errorf("schedule: workload P=%d but topology P=%d", spec.W.P, spec.Top.P)
	}
	if spec.W.L%spec.W.P != 0 {
		return nil, fmt.Errorf("schedule: %d layers not divisible by %d workers", spec.W.L, spec.W.P)
	}
	if spec.W.N%spec.W.P != 0 {
		return nil, fmt.Errorf("schedule: %d microbatches not divisible by %d workers", spec.W.N, spec.W.P)
	}
	switch strategy {
	case "gpipe", "1f1b", "zb1", "zb2":
		return buildPP(strategy, spec)
	case "weipipe-naive":
		return buildWeiPipeNaive(spec)
	case "weipipe-interleave", "wzb1", "wzb2":
		return buildWeiPipe(strategy, spec, 1)
	case "wzb2g":
		// An indivisible partition runs the flat belt's rows, as the runtime
		// falls back to them (pipeline.normalizeGroupSize).
		m := spec.Top.GroupSize()
		if m <= 1 || spec.W.P%m != 0 {
			m = 1
		}
		return buildWeiPipe(strategy, spec, m)
	case "fsdp":
		return buildFSDP(spec)
	case "dp":
		return buildDP(spec)
	default:
		return nil, fmt.Errorf("schedule: unknown strategy %q", strategy)
	}
}

// Traffic is the per-iteration point-to-point wire volume of a schedule,
// classified by link tier against the topology's group boundaries. It is
// the simulator-side counterpart of comm.Stats' measured intra/inter split.
type Traffic struct {
	// IntraBytes/IntraSends cover transfers that stay inside a topology
	// group: ring links within a group and the group-fabric ("x<g>")
	// transfers of the grouped belt.
	IntraBytes float64
	IntraSends int
	// InterBytes/InterSends cover transfers crossing a group boundary —
	// the slow links hierarchical clusters are gated by.
	InterBytes float64
	InterSends int
}

// BuildTraffic compiles the strategy like Build and additionally returns
// the schedule's link-tier traffic accounting. Collective-fabric time is
// not included (it carries no per-link byte attribution).
func BuildTraffic(strategy string, spec Spec) ([]sim.Task, Traffic, error) {
	tasks, err := Build(strategy, spec)
	if err != nil {
		return nil, Traffic{}, err
	}
	var tr Traffic
	for _, t := range tasks {
		if t.Bytes <= 0 || len(t.Resource) == 0 {
			continue
		}
		inter := false
		switch t.Resource[0] {
		case 'l', 'r':
			var link int
			if _, err := fmt.Sscanf(t.Resource[1:], "%d", &link); err != nil {
				continue
			}
			for i := 0; i < max(t.Span, 1); i++ {
				inter = inter || spec.Top.BoundaryLink((link+i)%spec.Top.P)
			}
		case 'x':
			// group-fabric transfers are intra by construction
		default:
			continue
		}
		if inter {
			tr.InterBytes += t.Bytes
			tr.InterSends++
		} else {
			tr.IntraBytes += t.Bytes
			tr.IntraSends++
		}
	}
	return tasks, tr, nil
}

// builder accumulates tasks with per-worker program-order chaining.
type builder struct {
	tasks []sim.Task
	last  map[int]int   // last program-order compute task per worker
	prog  map[int][]int // per-worker compute ids in program order
	spec  Spec
}

func newBuilder(spec Spec) *builder {
	return &builder{last: make(map[int]int), prog: make(map[int][]int), spec: spec}
}

// raw appends a task without program-order chaining and returns its id.
func (b *builder) raw(res string, worker int, dur float64, kind, label string, deps []int) int {
	id := len(b.tasks)
	d := make([]int, len(deps))
	copy(d, deps)
	b.tasks = append(b.tasks, sim.Task{
		ID: id, Resource: res, Worker: worker, Dur: dur, Deps: d, Kind: kind, Label: label,
	})
	return id
}

// compute appends a compute task on worker w, chained after the worker's
// previous compute task.
func (b *builder) compute(w int, dur float64, kind, label string, deps ...int) int {
	if prev, ok := b.last[w]; ok {
		deps = append(deps, prev)
	}
	id := b.raw(fmt.Sprintf("w%d", w), w, dur, kind, label, deps)
	b.last[w] = id
	b.prog[w] = append(b.prog[w], id)
	return id
}

// successorOf returns the compute task following id in worker w's program
// order, or -1 if id is the worker's last op.
func (b *builder) successorOf(w, id int) int {
	prog := b.prog[w]
	for i, t := range prog {
		if t == id {
			if i+1 < len(prog) {
				return prog[i+1]
			}
			return -1
		}
	}
	return -1
}

// linkFwd appends a transfer on ring link from→from+1.
func (b *builder) linkFwd(from int, bytes float64, label string, deps ...int) int {
	return b.linkSpan(from, 1, bytes, label, deps...)
}

// linkSpan appends a transfer from worker `from` to worker from+span: one
// transfer on the sender's link engine, priced at the slowest of the span
// ring links it bridges.
func (b *builder) linkSpan(from, span int, bytes float64, label string, deps ...int) int {
	top := b.spec.Top
	dur := 0.0
	for i := 0; i < span; i++ {
		l := (from + i) % top.P
		dur = max(dur, bytes*b.spec.wireScale()/top.SendBW[l]+top.Latency[l])
	}
	id := b.raw(fmt.Sprintf("l%d", from), -1, dur*b.spec.linkScale(), "comm", label, deps)
	b.tasks[id].Bytes = bytes * b.spec.wireScale()
	b.tasks[id].Span = span
	return id
}

// linkRev appends a transfer on the reverse direction of ring link
// `link` (i.e. from link+1 down to link); full-duplex links give the
// reverse direction its own engine with the same bandwidth.
func (b *builder) linkRev(link int, bytes float64, label string, deps ...int) int {
	dur := (bytes*b.spec.wireScale()/b.spec.Top.SendBW[link] + b.spec.Top.Latency[link]) * b.spec.linkScale()
	id := b.raw(fmt.Sprintf("r%d", link), -1, dur, "comm", label, deps)
	b.tasks[id].Bytes = bytes * b.spec.wireScale()
	return id
}

// groupFabric appends a non-adjacent intra-group transfer (a grouped-belt
// injection or shard handoff inside group g): it occupies the group's
// fabric resource "x<g>" and is priced at the group's slowest intra link.
func (b *builder) groupFabric(g int, bytes float64, label string, deps ...int) int {
	bw, lat := b.spec.Top.GroupFabric(g)
	dur := (bytes*b.spec.wireScale()/bw + lat) * b.spec.linkScale()
	id := b.raw(fmt.Sprintf("x%d", g), -1, dur, "comm", label, deps)
	b.tasks[id].Bytes = bytes * b.spec.wireScale()
	return id
}

// fabric appends a collective occupying the shared fabric.
func (b *builder) fabric(dur float64, label string, deps ...int) int {
	return b.raw("fabric", -1, dur, "coll", label, deps)
}

// ---- per-stage / per-chunk durations ---------------------------------------

// phaseTimes is the F/B/W duration of one chunk's pass.
type phaseTimes struct{ f, b, w float64 }

// chunkTimes returns the pass durations of every chunk — equally, of every
// activation-passing stage: L/P layers, plus the LM head on the last one (the
// embedding lookup is negligible).
func chunkTimes(w cost.Workload, t cost.OpTimes) []phaseTimes {
	lp := float64(w.L) / float64(w.P)
	times := make([]phaseTimes, w.P)
	for c := range times {
		times[c] = phaseTimes{f: lp * t.F, b: lp * t.B, w: lp * t.W}
	}
	last := &times[w.P-1]
	last.f += t.HeadF
	last.b += t.HeadB
	last.w += t.HeadW
	return times
}

// chunkBytes returns the fp16 wire size of chunk c's weights (gradient
// chunks are the same size).
func chunkBytes(w cost.Workload, c int) float64 {
	lp := float64(w.L) / float64(w.P)
	bytes := lp * w.LayerWeightBytes()
	if c == 0 {
		bytes += w.EmbedParams() * 2
	}
	if c == w.P-1 {
		bytes += w.HeadParams() * 2
	}
	return bytes
}

// ---- the program orders, costed ---------------------------------------------

// programs returns every worker's program for the spec's (P, N).
func programs(strategy string, w cost.Workload) ([][]order.Op, error) {
	progs := make([][]order.Op, w.P)
	for r := range progs {
		var err error
		if progs[r], err = order.Program(strategy, r, w.P, w.N); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// opGrid finds a pipelined schedule's compute tasks by what they run:
// f[c][m], b[c][m] and w[c][m] are the F, B and W task of microbatch m on
// chunk c (for the activation-passing family, on stage c). On the belts m is
// also the chunk's use index, and the worker of use m is m mod P.
type opGrid struct {
	f, b, w [][]int
	p       int
	// buffers is the per-worker, per-belt chunk buffer depth of the
	// weight-passing builders' flow control.
	buffers int
}

// emitPrograms appends strategy's compute tasks — every worker's program,
// worker by worker, each op chained after the one before it — and returns
// the grid that finds them. Link tasks are appended afterwards and wired by
// mutating Deps.
func (b *builder) emitPrograms(strategy string, label func(op order.Op, worker int) string) (*opGrid, error) {
	w := b.spec.W
	progs, err := programs(strategy, w)
	if err != nil {
		return nil, err
	}
	mk := func() [][]int {
		g := make([][]int, w.P)
		for c := range g {
			g[c] = make([]int, w.N)
			for m := range g[c] {
				g[c][m] = -1
			}
		}
		return g
	}
	g := &opGrid{f: mk(), b: mk(), w: mk(), p: w.P, buffers: b.spec.BeltBuffers}
	if g.buffers <= 0 {
		g.buffers = 2
	}
	times := chunkTimes(w, w.Times(b.spec.GPU))
	for worker, prog := range progs {
		for _, op := range prog {
			t := times[op.Chunk]
			dur, ids := t.f, g.f
			switch op.Phase {
			case 'B':
				dur, ids = t.b, g.b
			case 'W':
				dur, ids = t.w, g.w
			}
			ids[op.Chunk][op.MB] = b.compute(worker, dur, string(rune(op.Phase)), label(op, worker))
		}
	}
	return g, nil
}

// Belt flow control: a worker holds at most `buffers` in-flight chunks per
// belt, so the hop delivering its n-th chunk of a belt waits for the compute
// that consumed its (n−buffers)-th — finite buffering is what paces the ring.
// A worker consumes the forward belt in (round, chunk) order and the backward
// belt in (round, P−1−chunk) order; fwdEarlier and bwdEarlier return the
// compute task that consumed the chunk `buffers` arrivals before chunk c of
// round k at worker wk, or -1. A round the weight plan serves from kept
// copies (order.BeltPlan) travels no belt, and neither does a holder's use
// of its own chunk (order.Holds), but each such copy sits in the slot of the
// use it serves until that pass consumes it, so every belt keeps P slots per
// round and the pacing is unchanged.
func (g *opGrid) fwdEarlier(wk, k, c int) int {
	idx := k*g.p + c - g.buffers
	if idx < 0 {
		return -1
	}
	return g.f[idx%g.p][(idx/g.p)*g.p+wk]
}

func (g *opGrid) bwdEarlier(wk, k, c int) int {
	idx := k*g.p + (g.p - 1 - c) - g.buffers
	if idx < 0 {
		return -1
	}
	return g.b[g.p-1-idx%g.p][(idx/g.p)*g.p+wk]
}

// beltLabel names a weight-passing compute task: phase, chunk, round, worker.
func beltLabel(p int) func(op order.Op, worker int) string {
	return func(op order.Op, worker int) string {
		return fmt.Sprintf("%c c%d k%d@w%d", op.Phase, op.Chunk, op.MB/p, worker)
	}
}

// terminalGradAllReduce appends the TerminalGradAllReduce ablation's
// end-of-iteration all-reduce of the full gradient, after every worker's
// last op.
func (b *builder) terminalGradAllReduce() {
	p := b.spec.W.P
	deps := make([]int, 0, p)
	for worker := 0; worker < p; worker++ {
		if id, ok := b.last[worker]; ok {
			deps = append(deps, id)
		}
	}
	b.fabric(b.spec.Top.RingAllReduceTime(b.spec.W.TotalParams()*2*b.spec.wireScale()), "grad allreduce", deps...)
}

// ---- activation-passing pipelines -------------------------------------------

func buildPP(strategy string, spec Spec) ([]sim.Task, error) {
	w := spec.W
	p := w.P
	n := w.N
	actBytes := w.ActBoundaryBytes()
	b := newBuilder(spec)
	ops, err := b.emitPrograms(strategy, func(op order.Op, worker int) string {
		return fmt.Sprintf("%c%d@w%d", op.Phase, op.MB, worker)
	})
	if err != nil {
		return nil, err
	}

	// Activation transfers r→r+1: F at r+1 waits on the link task, which
	// waits on F at r. Megatron-style stage-boundary sends are blocking —
	// the sender's next compute op also waits for the transfer — which is
	// exactly the coupling WeiPipe's weight prefetching avoids.
	for r := 0; r < p-1; r++ {
		for m := 0; m < n; m++ {
			lt := b.linkFwd(r, actBytes, fmt.Sprintf("act%d@l%d", m, r), ops.f[r][m])
			b.tasks[ops.f[r+1][m]].Deps = append(b.tasks[ops.f[r+1][m]].Deps, lt)
			if succ := b.successorOf(r, ops.f[r][m]); succ >= 0 {
				b.tasks[succ].Deps = append(b.tasks[succ].Deps, lt)
			}
		}
	}
	// Gradient transfers r+1→r (reverse direction of link r), also blocking
	// on the sender.
	for r := 0; r < p-1; r++ {
		for m := 0; m < n; m++ {
			lt := b.linkRev(r, actBytes, fmt.Sprintf("grad%d@r%d", m, r), ops.b[r+1][m])
			b.tasks[ops.b[r][m]].Deps = append(b.tasks[ops.b[r][m]].Deps, lt)
			if succ := b.successorOf(r+1, ops.b[r+1][m]); succ >= 0 {
				b.tasks[succ].Deps = append(b.tasks[succ].Deps, lt)
			}
		}
	}
	return b.tasks, nil
}

// ---- WeiPipe-Naive (lockstep rotation) ---------------------------------------

// buildWeiPipeNaive models the paper's Figure-1 schedule faithfully: the
// two weight flows ride one shared belt rotation, each worker performs
// exactly one stage op per turn (a forward stage, or a fused backward
// stage taking ≈2× as long), and every turn ends with a global barrier —
// the rotation cannot advance past a busy worker. Both flows plus the
// gradient flow cross every link every turn whether or not they are used,
// which is the redundant transmission WeiPipe-Interleave eliminates. The
// bubble the paper attributes to Naive (forward workers idling while any
// worker is in its longer backward turn) emerges from the barriers. This is
// the paper's barrier abstraction, not the runtime's wire: every flow hops
// every turn, although the runtime serves some passes from kept copies
// (order.BeltPlan) — the B pass on chunk P−1 always — and every owner's
// passes on its own chunk from its master weights (order.Holds).
//
// A worker's turns are its program's ops, a B and the W fused to it counting
// as one; worker i starts i turns late (the rotation reaches it then).
func buildWeiPipeNaive(spec Spec) ([]sim.Task, error) {
	w := spec.W
	t := w.Times(spec.GPU)
	times := chunkTimes(w, t)
	p := w.P
	b := newBuilder(spec)
	progs, err := programs("weipipe-naive", w)
	if err != nil {
		return nil, err
	}
	turns := make([][]order.Op, p) // per worker: the op that opens each turn
	for worker, prog := range progs {
		for _, op := range prog {
			if op.Phase != 'W' {
				turns[worker] = append(turns[worker], op)
			}
		}
	}

	// A fused backward turn is costed as one pass, lp·(B+W) — the split
	// passes' lp·B + lp·W rounds differently in the last bit.
	fusedBW := func(c int) float64 {
		d := float64(w.L) / float64(p) * (t.B + t.W)
		if c == p-1 {
			d += t.HeadB + t.HeadW
		}
		return d
	}

	totalTurns := len(turns[0]) + p - 1
	prevBarrier := -1
	maxBytes := chunkBytes(w, 0)
	if hb := chunkBytes(w, p-1); hb > maxBytes {
		maxBytes = hb
	}
	for turn := 0; turn < totalTurns; turn++ {
		var turnTasks []int
		for worker := 0; worker < p; worker++ {
			l := turn - worker // worker's local turn
			if l < 0 || l >= len(turns[worker]) {
				continue
			}
			op := turns[worker][l]
			deps := []int{}
			if prevBarrier >= 0 {
				deps = append(deps, prevBarrier)
			}
			dur, label := times[op.Chunk].f, "F"
			if op.Phase == 'B' {
				dur, label = fusedBW(op.Chunk), "B+W"
			}
			turnTasks = append(turnTasks, b.compute(worker, dur, string(rune(op.Phase)),
				fmt.Sprintf("%s c%d k%d@w%d", label, op.Chunk, op.MB/p, worker), deps...))
		}
		// Both weight flows plus the gradient flow hop every link every
		// turn, used or not (Naive's redundant transmission).
		for link := 0; link < p; link++ {
			deps := []int{}
			if prevBarrier >= 0 {
				deps = append(deps, prevBarrier)
			}
			for flow := 0; flow < 3; flow++ {
				turnTasks = append(turnTasks,
					b.linkFwd(link, maxBytes, fmt.Sprintf("belt t%d l%d f%d", turn, link, flow), deps...))
			}
		}
		prevBarrier = b.raw("barrier", -1, 0, "coll", fmt.Sprintf("turn%d", turn), turnTasks)
	}
	return b.tasks, nil
}

// ---- WeiPipe (weight-passing) -------------------------------------------------

// buildWeiPipe models the interleaved weight-passing schedules (interleave,
// wzb1, wzb2, and wzb2g on groups of m ranks; m = 1 is the flat ring): every
// worker's program, and one link task per message of order.Wiring, in the
// table's order, which the sender's pass or the message it relays gates and
// whose receiving pass waits for it. Pricing and pacing are the
// simulator's:
//
//   - an exchange hop ('X') from the owner into its own group's holder runs
//     on the group fabric, and a hop between groups on the boundary link out
//     of the sending group; each waits for the hop before it, and every pass
//     of the receiving holder on the chunk waits for it;
//   - the flat owner's injection is free, as the retire is. A grouped
//     holder's injection into its group's first rank runs on the group
//     fabric after the shard is cached and, past round 0, the holder's own
//     pass one round earlier, kept-served or not;
//   - a relay runs on the ring link out of its sender once the sender's pass
//     starts, after the compute before it, as the runtime relays
//     (bindWeights), and, when the sender's use took a row rather than a
//     local copy (kept, or its holder's own: order.Holds), once that row
//     arrived: store and forward; a holder's relay also waits for the shard;
//   - a weight message also waits for the flow control's earlier consumer
//     (fwdEarlier/bwdEarlier), which is what paces the ring;
//   - a gradient hop ('D') leaves after its sender's W pass, on one ring
//     link or, past the owner, a two-link span, and carries nothing under
//     TerminalGradAllReduce, whose all-reduce closes the iteration instead.
func buildWeiPipe(strategy string, spec Spec, m int) ([]sim.Task, error) {
	w := spec.W
	p := w.P
	b := newBuilder(spec)
	ops, err := b.emitPrograms(strategy, beltLabel(p))
	if err != nil {
		return nil, err
	}
	rows, err := order.Wiring(strategy, p, w.N, m)
	if err != nil {
		return nil, err
	}
	type use struct {
		kind     byte
		chunk, j int
	}
	delivered := make(map[use]int) // the task delivering each weight use, -1 when free
	arrive := make([][]int, p/m)   // [group][chunk]: the exchange hop that cached the chunk
	for g := range arrive {
		arrive[g] = make([]int, p)
		for c := range arrive[g] {
			arrive[g][c] = -1
		}
	}
	dep := func(deps []int, id int) []int {
		if id >= 0 {
			deps = append(deps, id)
		}
		return deps
	}
	for _, r := range rows {
		c := r.Chunk
		bytes := chunkBytes(w, c)
		switch r.Kind {
		case 'X':
			deps := dep(nil, arrive[r.Src/m][c])
			var x int
			if r.Use == 0 {
				x = b.groupFabric(r.Src/m, bytes, fmt.Sprintf("xchg c%d hop0", c), deps...)
			} else {
				x = b.linkFwd((r.Src/m+1)*m-1, bytes, fmt.Sprintf("xchg c%d g%d", c, r.Dst/m), deps...)
			}
			arrive[r.Dst/m][c] = x
			for j := r.Dst; j < w.N; j += p {
				b.tasks[ops.f[c][j]].Deps = append(b.tasks[ops.f[c][j]].Deps, x)
				b.tasks[ops.b[c][j]].Deps = append(b.tasks[ops.b[c][j]].Deps, x)
			}
		case 'F', 'B':
			op, earlier, name := ops.f, ops.fwdEarlier, "Wf"
			if r.Kind == 'B' {
				op, earlier, name = ops.b, ops.bwdEarlier, "Wb"
			}
			inject := r.Injects(m)
			if inject && !r.Group {
				delivered[use{r.Kind, c, r.Use}] = -1
				continue
			}
			var deps []int
			if m > 1 && (inject || order.Holds(r.Src, c, p, m)) {
				deps = dep(deps, arrive[r.Src/m][c])
			}
			if inject {
				if r.Pass >= 0 {
					deps = append(deps, b.prog[r.Src][r.Pass])
				}
			} else {
				if prev, ok := delivered[use{r.Kind, c, r.Use - 1}]; ok {
					deps = dep(deps, prev)
				}
				if r.Pass > 0 {
					deps = append(deps, b.prog[r.Src][r.Pass-1])
				}
			}
			deps = dep(deps, earlier(r.Dst, r.Use/p, c))
			var x int
			if inject {
				x = b.groupFabric(r.Dst/m, bytes, fmt.Sprintf("%s c%d u%d inj", name, c, r.Use), deps...)
			} else {
				x = b.linkFwd(r.Src, bytes, fmt.Sprintf("%s c%d u%d", name, c, r.Use), deps...)
			}
			delivered[use{r.Kind, c, r.Use}] = x
			b.tasks[op[c][r.Use]].Deps = append(b.tasks[op[c][r.Use]].Deps, x)
		case 'D':
			if spec.TerminalGradAllReduce {
				bytes = 0
			}
			x := b.linkSpan(r.Src, (r.Dst-r.Src+p)%p, bytes, fmt.Sprintf("D c%d u%d", c, r.Use), b.prog[r.Src][r.Pass])
			b.tasks[ops.w[c][r.Use]].Deps = append(b.tasks[ops.w[c][r.Use]].Deps, x)
		}
	}
	if spec.TerminalGradAllReduce {
		b.terminalGradAllReduce()
	}
	return b.tasks, nil
}

// ---- FSDP -----------------------------------------------------------------

// buildFSDP simulates one representative data-parallel rank plus the shared
// collective fabric; all ranks are symmetric, so the representative's
// makespan is the iteration time.
func buildFSDP(spec Spec) ([]sim.Task, error) {
	w := spec.W
	t := w.Times(spec.GPU)
	top := spec.Top
	nLocal := w.N / w.P
	b := newBuilder(spec)

	// modules: embed, L layers, head
	nMods := w.L + 2
	modBytes := func(i int) float64 {
		switch i {
		case 0:
			return w.EmbedParams() * 2
		case nMods - 1:
			return w.HeadParams() * 2
		default:
			return w.LayerWeightBytes()
		}
	}
	modF := func(i int) float64 {
		switch i {
		case 0:
			return 0
		case nMods - 1:
			return t.HeadF
		default:
			return t.F
		}
	}
	modBW := func(i int) float64 {
		switch i {
		case 0:
			return 0
		case nMods - 1:
			return t.HeadB + t.HeadW
		default:
			return t.B + t.W
		}
	}

	// ZeRO-3 gathers sit on the critical path: with the small per-GPU
	// microbatches of the paper's configurations, DeepSpeed's prefetch
	// cannot hide the gathers behind compute, so each module's all-gather
	// blocks the compute that needs it and is itself gated on the previous
	// compute — the collective-communication dependence the paper contrasts
	// with WeiPipe's fully-prefetchable P2P belts. A pass whose module is
	// still gathered (order.FSDP's keep rule, the runtime's) waits for none.
	lastBW := make([]int, nMods)
	for _, u := range order.FSDP(nMods, nLocal) {
		i, m := u.Chunk, u.MB
		var deps []int
		if u.Gather {
			if prev, ok := b.last[0]; ok {
				deps = append(deps, prev)
			}
			label := fmt.Sprintf("ag m%d mod%d", m, i)
			if u.Phase == 'B' {
				label = fmt.Sprintf("ag-b m%d mod%d", m, i)
			}
			deps = []int{b.fabric(top.RingAllGatherTime(modBytes(i)), label, deps...)}
		}
		if u.Phase == 'F' {
			b.compute(0, modF(i), "F", fmt.Sprintf("F m%d mod%d", m, i), deps...)
			continue
		}
		lastBW[i] = b.compute(0, modBW(i), "B", fmt.Sprintf("BW m%d mod%d", m, i), deps...)
		if m == nLocal-1 && i == 0 {
			// reduce-scatter each module's gradient, overlapped with the
			// remaining backward via the fabric.
			for i := nMods - 1; i >= 0; i-- {
				b.fabric(top.RingAllGatherTime(modBytes(i)), fmt.Sprintf("rs mod%d", i), lastBW[i])
			}
		}
	}
	return b.tasks, nil
}

// ---- DP --------------------------------------------------------------------

// buildDP simulates one representative data-parallel rank: full local
// compute per microbatch, with per-layer gradient all-reduces overlapped
// after the last microbatch's W passes (bucketed DDP style).
func buildDP(spec Spec) ([]sim.Task, error) {
	w := spec.W
	t := w.Times(spec.GPU)
	top := spec.Top
	nLocal := w.N / w.P
	b := newBuilder(spec)

	for m := 0; m < nLocal; m++ {
		b.compute(0, float64(w.L)*t.F+t.HeadF, "F", fmt.Sprintf("F m%d", m))
		last := m == nLocal-1
		if !last {
			b.compute(0, float64(w.L)*(t.B+t.W)+t.HeadB+t.HeadW, "B", fmt.Sprintf("BW m%d", m))
			continue
		}
		// last microbatch: backward layer by layer so all-reduces overlap
		bw := b.compute(0, t.HeadB+t.HeadW, "B", "BW head")
		b.fabric(top.RingAllReduceTime(w.HeadParams()*2), "ar head", bw)
		for l := w.L - 1; l >= 0; l-- {
			bw = b.compute(0, t.B+t.W, "B", fmt.Sprintf("BW l%d", l))
			b.fabric(top.RingAllReduceTime(w.LayerWeightBytes()), fmt.Sprintf("ar l%d", l), bw)
		}
		b.fabric(top.RingAllReduceTime(w.EmbedParams()*2), "ar embed", bw)
	}
	return b.tasks, nil
}
