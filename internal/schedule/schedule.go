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

// Build compiles the named strategy. Strategy names match the pipeline
// package's Strategy constants.
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
		return buildWeiPipe(strategy, spec)
	case "wzb2g":
		return buildWeiPipeGrouped(spec)
	case "fsdp":
		return buildFSDP(spec)
	case "dp":
		return buildDP(spec)
	case "tp":
		return buildTP(spec)
	case "sp":
		return buildSP(spec)
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
			inter = spec.Top.BoundaryLink(link)
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
	dur := (bytes*b.spec.wireScale()/b.spec.Top.SendBW[from] + b.spec.Top.Latency[from]) * b.spec.linkScale()
	id := b.raw(fmt.Sprintf("l%d", from), -1, dur, "comm", label, deps)
	b.tasks[id].Bytes = bytes * b.spec.wireScale()
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
// round k at worker wk, or -1.
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
// worker is in its longer backward turn) emerges from the barriers.
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

func buildWeiPipe(strategy string, spec Spec) ([]sim.Task, error) {
	w := spec.W
	p := w.P
	uses := w.N
	b := newBuilder(spec)
	ops, err := b.emitPrograms(strategy, beltLabel(p))
	if err != nil {
		return nil, err
	}

	// Belt link tasks. Forward and backward weight belts hop j−1 → j with
	// store-and-forward relaying: the runtime passes a chunk on before it
	// computes with it, so a hop waits for the previous hop, never for the
	// previous user's compute. The D belt hop j−1 → j carries the
	// accumulator and always depends on the producer's W pass. Flow control
	// (fwdEarlier/bwdEarlier) is what paces the ring.
	for c := 0; c < p; c++ {
		bytes := chunkBytes(w, c)
		var prevFLink, prevBLink = -1, -1
		for j := 1; j < uses; j++ {
			from := (j - 1) % p
			dst := j % p
			k := j / p
			fdeps := []int{}
			bdeps := []int{}
			if prevFLink >= 0 {
				fdeps = append(fdeps, prevFLink)
			}
			if prevBLink >= 0 {
				bdeps = append(bdeps, prevBLink)
			}
			if e := ops.fwdEarlier(dst, k, c); e >= 0 {
				fdeps = append(fdeps, e)
			}
			if e := ops.bwdEarlier(dst, k, c); e >= 0 {
				bdeps = append(bdeps, e)
			}
			dBytes := bytes
			if spec.TerminalGradAllReduce {
				dBytes = 0 // ablation: no D belt; gradients all-reduced at the end
			}
			fl := b.linkFwd(from, bytes, fmt.Sprintf("Wf c%d u%d", c, j), fdeps...)
			bl := b.linkFwd(from, bytes, fmt.Sprintf("Wb c%d u%d", c, j), bdeps...)
			dl := b.linkFwd(from, dBytes, fmt.Sprintf("D c%d u%d", c, j), ops.w[c][j-1])
			b.tasks[ops.f[c][j]].Deps = append(b.tasks[ops.f[c][j]].Deps, fl)
			b.tasks[ops.b[c][j]].Deps = append(b.tasks[ops.b[c][j]].Deps, bl)
			b.tasks[ops.w[c][j]].Deps = append(b.tasks[ops.w[c][j]].Deps, dl)
			prevFLink, prevBLink = fl, bl
		}
	}
	if spec.TerminalGradAllReduce {
		b.terminalGradAllReduce()
	}
	return b.tasks, nil
}

// ---- WeiPipe grouped belt (wzb2g) ------------------------------------------

// buildWeiPipeGrouped models the topology-aware grouped belt: the wzb2
// compute schedule, with weight-belt circulation confined to each topology
// group and a once-per-iteration deduplicated shard exchange between the
// groups' holders. Only the exchange crosses group boundaries — one copy of
// each chunk per boundary link per iteration, serving both weight belts and
// every round — while the flat belt would drag both belts across every
// boundary link every round. Intra-group injections (holder → group-first)
// are modelled honestly on the group fabric, including the round-0 injection
// the flat model treats as free.
func buildWeiPipeGrouped(spec Spec) ([]sim.Task, error) {
	w := spec.W
	p := w.P
	m := spec.Top.GroupSize()
	if m <= 1 || p%m != 0 {
		// Degenerate partition: the runtime falls back to the flat belt
		// (pipeline.normalizeGroupSize), so the model does too.
		return buildWeiPipe("wzb2", spec)
	}
	nG := p / m
	uses := w.N
	b := newBuilder(spec)
	// Compute grid: wzb2g shares wzb2's program — the grouped belt changes
	// how weights travel, never what each worker computes (bit-identity).
	ops, err := b.emitPrograms("wzb2g", beltLabel(p))
	if err != nil {
		return nil, err
	}

	owner := func(c int) int { return (c - 1 + p) % p }
	holderIn := func(g, c int) int { return g*m + c%m }

	// Shard exchange: the owner's fresh copy of chunk c reaches its own
	// group's holder (group-fabric hop, unless the owner holds it itself),
	// then store-and-forwards around the holder ring, one boundary-link hop
	// per group. arrive[g][c] is the task after which chunk c is cached in
	// group g (-1: cached with no wire hop).
	arrive := make([][]int, nG)
	for g := range arrive {
		arrive[g] = make([]int, p)
		for c := range arrive[g] {
			arrive[g][c] = -1
		}
	}
	for c := 0; c < p; c++ {
		bytes := chunkBytes(w, c)
		og := owner(c) / m
		prev := -1
		if holderIn(og, c) != owner(c) {
			prev = b.groupFabric(og, bytes, fmt.Sprintf("xchg c%d hop0", c))
			arrive[og][c] = prev
		}
		for s := 1; s < nG; s++ {
			fromG := (og + s - 1) % nG
			toG := (og + s) % nG
			deps := []int{}
			if prev >= 0 {
				deps = append(deps, prev)
			}
			prev = b.linkFwd((fromG+1)*m-1, bytes, fmt.Sprintf("xchg c%d g%d", c, toG), deps...)
			arrive[toG][c] = prev
		}
	}

	// Weight-belt wiring. Within a group the chunk hops rank-adjacent links
	// exactly like the flat belt; at each group-first rank the chunk is
	// (re-)injected from the group's holder cache over the group fabric,
	// paced by the holder's own consumption one round earlier. The group-last
	// rank never forwards — weight belts never touch a boundary link.
	wireBelt := func(op [][]int, name string, earlier func(wk, k, c int) int) {
		for c := 0; c < p; c++ {
			bytes := chunkBytes(w, c)
			prevLink := -1 // segment-local store-and-forward chain
			for j := 0; j < uses; j++ {
				dst := j % p
				k := j / p
				if dst%m == 0 {
					g := dst / m
					hold := holderIn(g, c)
					if hold == dst {
						// Self-held chunk: a local cache copy, no wire task.
						if a := arrive[g][c]; a >= 0 {
							b.tasks[op[c][j]].Deps = append(b.tasks[op[c][j]].Deps, a)
						}
						prevLink = -1
						continue
					}
					deps := []int{}
					if a := arrive[g][c]; a >= 0 {
						deps = append(deps, a)
					}
					if k >= 1 {
						deps = append(deps, op[c][(k-1)*p+hold])
					}
					if e := earlier(dst, k, c); e >= 0 {
						deps = append(deps, e)
					}
					inj := b.groupFabric(g, bytes, fmt.Sprintf("%s c%d u%d inj", name, c, j), deps...)
					b.tasks[op[c][j]].Deps = append(b.tasks[op[c][j]].Deps, inj)
					prevLink = inj
					continue
				}
				deps := []int{}
				if prevLink >= 0 {
					deps = append(deps, prevLink)
				} else if a := arrive[dst/m][c]; a >= 0 {
					// The segment started at a self-held group-first rank:
					// its first forward still needs the shard to be cached.
					deps = append(deps, a)
				}
				if e := earlier(dst, k, c); e >= 0 {
					deps = append(deps, e)
				}
				lt := b.linkFwd(dst-1, bytes, fmt.Sprintf("%s c%d u%d", name, c, j), deps...)
				b.tasks[op[c][j]].Deps = append(b.tasks[op[c][j]].Deps, lt)
				prevLink = lt
			}
		}
	}
	wireBelt(ops.f, "Wf", ops.fwdEarlier)
	wireBelt(ops.b, "Wb", ops.bwdEarlier)

	// The D belt is untouched by grouping: in-transit gradient accumulation
	// is a strict left-fold around the full ring (bit-identity requires the
	// flat order), so it hops every link exactly as in wzb2.
	for c := 0; c < p; c++ {
		dBytes := chunkBytes(w, c)
		if spec.TerminalGradAllReduce {
			dBytes = 0
		}
		for j := 1; j < uses; j++ {
			dl := b.linkFwd((j-1)%p, dBytes, fmt.Sprintf("D c%d u%d", c, j), ops.w[c][j-1])
			b.tasks[ops.w[c][j]].Deps = append(b.tasks[ops.w[c][j]].Deps, dl)
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
	// with WeiPipe's fully-prefetchable P2P belts.
	for m := 0; m < nLocal; m++ {
		fwdCompute := make([]int, nMods)
		for i := 0; i < nMods; i++ {
			deps := []int{}
			if prev, ok := b.last[0]; ok {
				deps = append(deps, prev)
			}
			g := b.fabric(top.RingAllGatherTime(modBytes(i)), fmt.Sprintf("ag m%d mod%d", m, i), deps...)
			fwdCompute[i] = b.compute(0, modF(i), "F", fmt.Sprintf("F m%d mod%d", m, i), g)
		}
		bwdCompute := make([]int, nMods)
		for i := nMods - 1; i >= 0; i-- {
			deps := []int{}
			if prev, ok := b.last[0]; ok {
				deps = append(deps, prev)
			}
			g := b.fabric(top.RingAllGatherTime(modBytes(i)), fmt.Sprintf("ag-b m%d mod%d", m, i), deps...)
			bwdCompute[i] = b.compute(0, modBW(i), "B", fmt.Sprintf("BW m%d mod%d", m, i), g)
		}
		if m == nLocal-1 {
			// reduce-scatter each module's gradient, overlapped with the
			// remaining backward via the fabric.
			for i := nMods - 1; i >= 0; i-- {
				b.fabric(top.RingAllGatherTime(modBytes(i)), fmt.Sprintf("rs mod%d", i), bwdCompute[i])
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

// ---- Tensor parallelism -----------------------------------------------------

// buildTP simulates one representative rank of a Megatron-style TP group
// (all ranks are symmetric): each layer's compute is 1/P of the full layer,
// but every layer requires two activation-sized ring all-reduces in the
// forward and two in the backward — all blocking, since they sit in the
// middle of the layer. This is the bandwidth hunger the paper contrasts
// WeiPipe's fixed-size weight traffic against.
func buildTP(spec Spec) ([]sim.Task, error) {
	w := spec.W
	t := w.Times(spec.GPU)
	top := spec.Top
	p := float64(w.P)
	b := newBuilder(spec)
	actBytes := w.ActBoundaryBytes() * spec.wireScale()

	coll := func(label string) {
		deps := []int{}
		if prev, ok := b.last[0]; ok {
			deps = append(deps, prev)
		}
		g := b.fabric(top.RingAllReduceTime(actBytes), label, deps...)
		// blocking: thread the collective into program order
		b.compute(0, 0, "F", label+" sync", g)
	}

	for m := 0; m < w.N; m++ {
		for l := 0; l < w.L; l++ {
			b.compute(0, t.F/p/2, "F", fmt.Sprintf("F attn m%d l%d", m, l))
			coll(fmt.Sprintf("ar-f1 m%d l%d", m, l))
			b.compute(0, t.F/p/2, "F", fmt.Sprintf("F ffn m%d l%d", m, l))
			coll(fmt.Sprintf("ar-f2 m%d l%d", m, l))
		}
		b.compute(0, t.HeadF, "F", fmt.Sprintf("F head m%d", m))
		b.compute(0, t.HeadB+t.HeadW, "B", fmt.Sprintf("BW head m%d", m))
		for l := w.L - 1; l >= 0; l-- {
			b.compute(0, (t.B+t.W)/p/2, "B", fmt.Sprintf("BW ffn m%d l%d", m, l))
			coll(fmt.Sprintf("ar-b1 m%d l%d", m, l))
			b.compute(0, (t.B+t.W)/p/2, "B", fmt.Sprintf("BW attn m%d l%d", m, l))
			coll(fmt.Sprintf("ar-b2 m%d l%d", m, l))
		}
	}
	return b.tasks, nil
}

// ---- Sequence parallelism ----------------------------------------------------

// buildSP simulates one representative rank of a sequence-parallel group
// (allgather-KV variant): compute splits 1/P along the sequence, but every
// layer all-gathers keys and values forward and reduce-scatters their
// gradients backward — activation-sized collectives on the critical path,
// plus a DP-style replicated-weight gradient all-reduce per iteration.
func buildSP(spec Spec) ([]sim.Task, error) {
	w := spec.W
	t := w.Times(spec.GPU)
	top := spec.Top
	p := float64(w.P)
	b := newBuilder(spec)
	kvBytes := w.ActBoundaryBytes() * spec.wireScale() // one of K or V, full sequence

	coll := func(label string, bytes float64) {
		deps := []int{}
		if prev, ok := b.last[0]; ok {
			deps = append(deps, prev)
		}
		g := b.fabric(top.RingAllGatherTime(bytes), label, deps...)
		b.compute(0, 0, "F", label+" sync", g)
	}

	for m := 0; m < w.N; m++ {
		for l := 0; l < w.L; l++ {
			coll(fmt.Sprintf("ag-kv m%d l%d", m, l), 2*kvBytes)
			b.compute(0, t.F/p, "F", fmt.Sprintf("F m%d l%d", m, l))
		}
		b.compute(0, t.HeadF/p, "F", fmt.Sprintf("F head m%d", m))
		b.compute(0, (t.HeadB+t.HeadW)/p, "B", fmt.Sprintf("BW head m%d", m))
		for l := w.L - 1; l >= 0; l-- {
			b.compute(0, (t.B+t.W)/p, "B", fmt.Sprintf("BW m%d l%d", m, l))
			coll(fmt.Sprintf("rs-kv m%d l%d", m, l), 2*kvBytes)
		}
	}
	// replicated-weight gradient all-reduce
	deps := []int{}
	if prev, ok := b.last[0]; ok {
		deps = append(deps, prev)
	}
	b.fabric(top.RingAllReduceTime(w.TotalParams()*2*spec.wireScale()), "grad allreduce", deps...)
	return b.tasks, nil
}
