package pipeline

import (
	"fmt"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/trace"
)

// The asynchronous weight-belt engine (Options.Overlap).
//
// In blocking mode every belt hop sits on the compute thread's critical
// path: a stage Recvs its weight chunk, consumes it, and only then forwards
// it downstream, so a chunk crosses the ring no faster than compute drains
// it. The engine moves the belt off that path. A background receiver
// goroutine walks the iteration's receive plan — derived from the *same*
// schedule iterator the compute loop runs, so the two orders agree by
// construction — and for each op:
//
//  1. blocks in Recv for the payload;
//  2. if the op is a weight-belt hop with further uses ahead, immediately
//     relays the payload to the ring successor (store-and-forward): the
//     belt circulates at wire speed instead of compute speed, so
//     downstream ranks stop waiting on upstream compute;
//  3. stages the payload on a small buffered channel (the double buffer)
//     for the compute thread to take when the schedule reaches that stage.
//
// The engine handles only the two *weight* belts, one receive lane per
// belt (forward and backward), so a late hop on one belt cannot throttle
// the other belt's wavefront. Lanes are safe to split because the streams
// occupy disjoint mailbox keys (the belt id is folded into Tag.B), so
// per-stream delivery order is untouched.
//
// Gradient-belt receives deliberately stay on the compute thread, exactly
// as in blocking mode. A gradient hop waits on the upstream rank's
// accumulate — producer serialization the schedule dictates, not transport
// latency — so prefetching it cannot make it arrive earlier, and routing
// it through an engine goroutine only inserts scheduler wake-ups into the
// accumulation chain, which is the iteration's critical path. The outbound
// gradient hop donates its buffer (comm.SendOwned) in both modes.
//
// Determinism: the engine reorders nothing and touches no payload bytes.
// Relayed chunks are forwarded verbatim (blocking mode forwards the same
// bytes, just later), and gradient accumulation stays on the compute thread
// in schedule order — so an overlapped run is bit-identical to a blocking
// one.

// beltPrefetchDepth bounds how many received-but-unconsumed payloads each
// lane holds beyond the one the compute thread is consuming: the classic
// double buffer (one chunk in use, one staged) with the engine's in-progress
// receive as the refill. Deeper prefetch only inflates the resident payload
// working set — the belt is demand-paced, so depth 1 already keeps the next
// chunk ready the moment the compute thread asks.
const beltPrefetchDepth = 1

// beltOp is one receive in the engine's per-iteration plan, plus the
// optional immediate downstream relay for weight-belt hops. Grouped-belt
// ops (grp) run against the group sub-transport with group-local ranks;
// local ops source the payload from the iteration's shard cache instead of
// a receive (the group-first rank consuming a chunk it holds itself).
type beltOp struct {
	src    int
	tag    Tag
	fwdDst int // -1: no relay (gradient ops, final belt use)
	fwdTag Tag
	grp    bool
	local  bool
	chunk  int // cache key for local ops
}

// beltItem is a staged payload (or the receive/relay error that ended the
// plan) handed from the engine to the compute thread.
type beltItem struct {
	payload []float32
	err     error
}

// beltLane is one of the engine's two receive streams: a background
// goroutine draining its share of the plan into a double-buffered channel.
type beltLane struct {
	staged chan beltItem
	done   chan struct{}
}

// beltEngine runs one iteration's weight-belt receive plan on two
// background goroutines, one per belt.
type beltEngine struct {
	t       Transport
	grp     Transport         // group sub-transport for grp ops (grouped belt)
	cache   map[int][]float32 // shard cache for local ops (grouped belt; immutable while armed)
	tr      *trace.Tracer
	weights [2]*beltLane // indexed by beltFwd/beltBwd: weight hops, relayed at receipt
	quit    chan struct{}
}

// beltPlan derives the rank's weight-belt receive plan for an R-round
// iteration by replaying the schedule iterator: one weight receive per F
// and B stage. Gradient receives are not planned — they stay on the
// compute thread (see the package comment).
func (w *WeiPipe) beltPlan(R int) []beltOp {
	p := w.t.Size()
	rank := w.t.Rank()
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	total := R * p
	plan := make([]beltOp, 0, 3*R*p+1)
	weightOp := func(belt, c, use int) beltOp {
		op := beltOp{
			tag:    Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use)},
			fwdDst: -1,
		}
		if g := w.grouped; g != nil {
			// Grouped belt: sources and relays are group-local on the
			// sub-transport. The group-first rank is fed by the chunk's
			// holder (or the cache, when it holds the chunk itself); the
			// group-last rank never relays — boundary links stay idle.
			op.grp = true
			i := rank - g.first
			switch {
			case i > 0:
				op.src = i - 1
			case g.holderLocal(c) == 0:
				op.local = true
				op.chunk = c
			default:
				op.src = g.holderLocal(c)
			}
			if i < g.m-1 {
				op.fwdDst = i + 1
				op.fwdTag = Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use+1)}
			}
			return op
		}
		op.src = prev
		if use == 0 {
			op.src = w.owner(c)
		}
		if use < total-1 {
			op.fwdDst = next
			op.fwdTag = Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use+1)}
		}
		return op
	}
	// forEachStage cannot fail here: the variant was validated when the
	// schedule first ran, and the visitor below never returns an error.
	_ = forEachStage(w.variant, R, p, func(phase byte, k, c int) error {
		mb := k*p + rank
		switch phase {
		case 'F':
			plan = append(plan, weightOp(beltFwd, c, mb))
		case 'B':
			plan = append(plan, weightOp(beltBwd, c, mb))
		default: // 'W': gradient receives are unplanned (compute-thread direct).
		}
		return nil
	})
	return plan
}

// startBeltEngine arms the engine for one iteration. The caller must pair
// it with stop().
func (w *WeiPipe) startBeltEngine(R int) *beltEngine {
	var wPlans [2][]beltOp
	for _, op := range w.beltPlan(R) {
		b := beltOf(op.tag)
		wPlans[b] = append(wPlans[b], op)
	}
	e := &beltEngine{t: w.t, tr: w.tr, quit: make(chan struct{})}
	if w.grouped != nil {
		e.grp = w.grouped.grp
		e.cache = w.grouped.cache
	}
	for b := range wPlans {
		e.weights[b] = e.runLane(wPlans[b])
	}
	return e
}

// beltOf recovers the belt id folded into a weight tag's use field by enc:
// the high bits hold iter*beltCount+belt, so the belt is the residue.
func beltOf(tag Tag) int {
	return int((tag.B >> beltUseBits) % beltCount)
}

// runLane spawns the receiver goroutine for one lane's share of the plan.
func (e *beltEngine) runLane(plan []beltOp) *beltLane {
	l := &beltLane{
		staged: make(chan beltItem, beltPrefetchDepth),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		defer close(l.staged)
		for _, op := range plan {
			t := e.t
			if op.grp {
				t = e.grp
			}
			belt := int64(beltOf(op.tag))
			use := int64(op.tag.B & (1<<beltUseBits - 1))
			var payload []float32
			var err error
			if op.local {
				// Grouped belt, self-held chunk: the payload comes off the
				// immutable shard cache, wire-speed by construction.
				cached := e.cache[op.chunk]
				payload = comm.GetBuf(len(cached))
				copy(payload, cached)
			} else {
				span := e.tr.Begin()
				payload, err = t.Recv(op.src, op.tag)
				e.tr.End(span, trace.CodePrefetch, belt, use)
			}
			if err == nil && op.fwdDst >= 0 {
				// Store-and-forward: relay the weight chunk downstream the
				// moment it lands, long before compute consumes it here.
				span := e.tr.Begin()
				err = t.Send(op.fwdDst, op.fwdTag, payload)
				e.tr.End(span, trace.CodeRelay, belt, use+1)
			}
			if err != nil {
				comm.Release(payload)
				payload = nil
			}
			// Prefer quit once it is closed so an aborting iteration reclaims
			// the payload instead of parking it on a channel nobody reads.
			select {
			case <-e.quit:
				comm.Release(payload)
				return
			default:
			}
			select {
			case l.staged <- beltItem{payload: payload, err: err}:
			case <-e.quit:
				comm.Release(payload)
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return l
}

// next hands the compute thread its next belt payload for the given tag,
// recording the time it spent waiting — the engine's analogue of the
// blocking path's exposed receive latency.
func (e *beltEngine) next(tag Tag, stats *comm.Stats) ([]float32, error) {
	lane := e.weights[beltOf(tag)]
	start := time.Now()
	it, ok := <-lane.staged
	stats.RecordBeltStallKind(tag.Kind, time.Since(start))
	if !ok {
		return nil, fmt.Errorf("pipeline: belt engine plan exhausted")
	}
	return it.payload, it.err
}

// stop tears the engine down at iteration end (or abort): it signals quit
// and drains any staged payloads back to the pool. It never blocks — a
// receiver still parked in Recv (abort path) releases its own payload at
// its next quit check, or exits when the transport closes under it.
func (e *beltEngine) stop() {
	close(e.quit)
	for _, l := range []*beltLane{e.weights[beltFwd], e.weights[beltBwd]} {
		for drained := false; !drained; {
			select {
			case it, ok := <-l.staged:
				if !ok {
					drained = true
					break
				}
				comm.Release(it.payload)
			default:
				drained = true
			}
		}
	}
}
