package pipeline

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/cost"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/order"
	"weipipe/internal/tensor"
)

// residency sums the bytes of distinct float32 buffers: a module bound to a
// trainer's flat state overlaps that state, and is counted once.
type residency struct{ spans [][2]uintptr }

func (r *residency) add(bufs ...[]float32) {
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		r.spans = append(r.spans, [2]uintptr{lo, lo + 4*uintptr(len(b))})
	}
}

func (r *residency) sets(sets ...*nn.ParamSet) {
	for _, s := range sets {
		if s == nil {
			continue
		}
		for _, name := range s.Names() {
			r.add(s.Get(name).Data)
		}
	}
}

func (r *residency) opt(o *optim.AdamW) { o.VisitState(func(m, v []float32) { r.add(m, v) }) }

func (r *residency) bytes() int {
	slices.SortFunc(r.spans, func(a, b [2]uintptr) int { return cmp.Compare(a[0], b[0]) })
	total, end := 0, uintptr(0)
	for _, s := range r.spans {
		lo := max(s[0], end)
		if s[1] > lo {
			total += int(s[1] - lo)
			end = s[1]
		}
	}
	return total
}

// weightSideBytes is every parameter-side buffer reachable from a trainer —
// its model's storage, owned weights and optimizer moments, gradient sets
// and buffers, and its pieces' rollbacks and buddy shadow — counted once each.
func weightSideBytes(tr Trainer) int {
	var r residency
	for _, m := range tr.Model().Modules {
		r.sets(m.Params())
	}
	var own *owned
	switch tr := tr.(type) {
	case *WeiPipe:
		own = &tr.owned
		r.add(tr.kept...)
		r.add(tr.ownBelt)
		r.sets(tr.wGrads...)
	case *PP:
		own = &tr.owned
		r.add(tr.flatG)
		r.sets(tr.grads...)
	case *Serial:
		own = &tr.owned
		r.add(tr.flatG)
		r.sets(tr.grads...)
	case *DP:
		return weightSideBytes(tr.Serial)
	case *FSDP:
		own = &tr.owned
		r.add(tr.gradFlat...)
		r.sets(tr.grads...)
	}
	pieces := own.pieces
	if own.shadow != nil {
		pieces = append(slices.Clone(pieces), *own.shadow)
	}
	for _, p := range pieces {
		r.add(p.w)
		r.opt(p.opt)
		if p.rb != nil {
			r.add(p.rb.w)
			r.opt(p.rb.opt)
		}
	}
	return r.bytes()
}

// TestRankHoldsOnlyItsWeights pins, from shapes, what a rank keeps of the
// weights, before and after a step, at p ∈ {2, 3, 4}. In fp32 elements:
//
//   - WeiPipe (flat and grouped): its owned chunk × 3 — master, m, v. Buddy
//     replication adds the owned chunk's one-deep rollback (× 3) and the
//     successor chunk's shadow × 6: weights, m, v and their rollback; the
//     replay scales the received gradient in place. Between passes it also
//     keeps belt copies: checked at every belt receive, no chunk but the
//     owned one is bound, the chunks kept are exactly those order.BeltPlan
//     keeps over the pass, the owner's payload of its chunk is its master
//     weights themselves, not a copy, and with the one the receive brings
//     the copies are at most two — but on a rank some dropped early row
//     reaches (earlyReached), whose kept copies stand in for rows that would
//     have waited in its mailbox (order's TestEarlyRowsDropped bounds those).
//   - PP: its stage × 4 — weights, gradients, m, v.
//   - Serial and DP: the whole model × 4, as a stage of one.
//   - FSDP: its shards × 3 — weights, m, v — and the full-size gradient
//     buffers the reduce-scatter consumes. Between passes it also holds
//     gathered modules: checked at the first send of every collective in
//     the step, the modules bound are exactly those order.FSDP keeps over
//     it, and the pass a gather feeds binds one more, so at most two.
//
// Every module a rank does not own is a shell, and the modules it computes
// with are views of the state above: a trainer that still built the whole
// model, or kept a second copy of its own range, would exceed the count.
func TestRankHoldsOnlyItsWeights(t *testing.T) {
	cfg := eqCfg()
	type run struct {
		name  string
		s     Strategy
		buddy bool
	}
	runs := []run{{"wzb2", StrategyWZB2, false}, {"wzb2_buddy", StrategyWZB2, true},
		{"wzb2g", StrategyWZB2G, false}, {"1f1b", Strategy1F1B, false}, {"fsdp", StrategyFSDP, false},
		{"dp", StrategyDP, false}, {"serial", StrategySerial, false}}
	for _, rn := range runs {
		ps := []int{2, 3, 4}
		if rn.s == StrategySerial {
			ps = []int{1}
		}
		for _, p := range ps {
			t.Run(fmt.Sprintf("%s_p%d", rn.name, p), func(t *testing.T) {
				opts := eqOpts()
				opts.buddy = rn.buddy
				if opts.GroupSize = 2; p%2 != 0 {
					opts.GroupSize = p
				}
				cl := comm.NewCluster(p)
				defer cl.Close()
				trainers := make([]Trainer, p)
				batches := eqBatches(1, 2*p)(0)
				heldOver := fsdpHeldOverGathers(cfg.NumModules(), len(batches)/p)
				probes := make([]*collProbe, p)
				belts := make([]*beltProbe, p)
				for r := range trainers {
					var tr Trainer
					probe := &collProbe{Transport: cl.Transport(r), check: func(seq int) {
						checkFSDPHeld(t, tr.(*FSDP), r, seq, heldOver)
					}}
					belt := &beltProbe{Transport: probe}
					var err error
					if tr, err = New(rn.s, belt, cfg, opts); err != nil {
						t.Fatal(err)
					}
					probe.armed = rn.s == StrategyFSDP
					if w, ok := tr.(*WeiPipe); ok {
						keptOver := beltKeptOverPasses(t, rn.s, r, p, len(batches), w.groupSize())
						early := earlyReached(t, rn.s, r, p, len(batches), w.groupSize())
						belt.check = func(op order.Op) {
							checkBeltKept(t, w, r, op, keptOver, early)
						}
					}
					trainers[r], probes[r], belts[r] = tr, probe, belt
				}
				want := func(r int) int {
					switch tr := trainers[r].(type) {
					case *WeiPipe:
						if rn.s == StrategyWZB2G && tr.grouped == nil {
							t.Fatal("wzb2g fell back to the flat belt")
						}
						lo, hi := tr.chunkRange(tr.ownChunk)
						n := 3 * tr.mdl.ChunkSize(lo, hi)
						if c, ok := tr.BuddyChunk(); ok {
							blo, bhi := tr.chunkRange(c)
							n = 2*n + 6*tr.mdl.ChunkSize(blo, bhi)
						}
						return 4 * n
					case *PP:
						return 4 * 4 * tr.mdl.ChunkSize(tr.lo, tr.hi)
					case *Serial, *DP:
						return 4 * 4 * tr.Model().NumParams()
					case *FSDP:
						n := tr.mdl.NumParams()
						for _, p := range tr.pieces {
							n += 3 * len(p.w)
						}
						return 4 * n
					}
					t.Fatalf("unexpected trainer %T", trainers[r])
					return 0
				}
				check := func(when string) {
					for r, tr := range trainers {
						if got, want := weightSideBytes(tr), want(r); got != want {
							t.Errorf("%s: rank %d holds %d weight-side bytes, want %d (the full model is %d)",
								when, r, got, want, 4*tr.Model().NumParams())
						}
					}
				}
				check("built")
				trainAll(t, trainers, batches)
				check("after a step")
				// Every gather, every module's reduce-scatter and the loss's
				// all-reduce were checked.
				for r, probe := range probes {
					if want := len(heldOver) + cfg.NumModules() + 1; probe.armed && probe.calls != want {
						t.Errorf("rank %d: %d collectives checked, want %d", r, probe.calls, want)
					}
				}
				// Every belt receive was checked: one per pass the plan
				// gathers, less the uses of the chunks the rank holds, which
				// it serves itself.
				for r, tr := range trainers {
					w, ok := tr.(*WeiPipe)
					if !ok {
						continue
					}
					want := 0
					for _, u := range w.plan.uses {
						if u.Gather && !order.Holds(r, u.Chunk, len(trainers), w.groupSize()) {
							want++
						}
					}
					if belts[r].calls != want {
						t.Errorf("rank %d: %d belt receives checked, want %d", r, belts[r].calls, want)
					}
				}
			})
		}
	}
}

// collProbe calls check, on the sending rank's goroutine, at the first send
// of every collective its rank starts — a Send, or a gather's Forward of
// the rank's shard — with the collective's seq. It only observes.
type collProbe struct {
	comm.Transport
	armed bool
	calls int
	check func(seq int)
}

func (c *collProbe) observe(tag comm.Tag) {
	if c.armed && tag.Kind == comm.KindColl && tag.B == 0 {
		c.calls++
		c.check(tag.A)
	}
}

func (c *collProbe) Send(dst int, tag comm.Tag, data []float32) error {
	c.observe(tag)
	return c.Transport.Send(dst, tag, data)
}

// Forward is how a gather's first hop leaves: the shard in place.
func (c *collProbe) Forward(dst int, tag comm.Tag, payload []float32) error {
	c.observe(tag)
	return c.Transport.Forward(dst, tag, payload)
}

// beltProbe calls check, on the receiving rank's goroutine, at every receive
// of a weight-belt use — forward or backward, flat or grouped — with the pass
// it feeds. It only observes.
type beltProbe struct {
	comm.Transport
	calls int
	check func(op order.Op)
}

func (b *beltProbe) observe(tag comm.Tag) {
	belt, use := (tag.B>>beltUseBits)%beltCount, tag.B&(1<<beltUseBits-1)
	if b.check == nil || tag.Kind != comm.KindWeight || (belt != beltFwd && belt != beltBwd) {
		return
	}
	phase := byte('F')
	if belt == beltBwd {
		phase = 'B'
	}
	b.calls++
	b.check(order.Op{Phase: phase, MB: int(use), Chunk: tag.A})
}

func (b *beltProbe) Recv(src int, tag comm.Tag) ([]float32, error) {
	b.observe(tag)
	return b.Transport.Recv(src, tag)
}

func (b *beltProbe) RecvTimeout(src int, tag comm.Tag, timeout time.Duration) ([]float32, error) {
	b.observe(tag)
	return b.Transport.RecvTimeout(src, tag, timeout)
}

// beltKeptOverPasses returns, for each pass of rank's order.BeltPlan that
// gathers its chunk, the chunks kept over it.
func beltKeptOverPasses(t *testing.T, s Strategy, rank, p, n, m int) map[order.Op][]int {
	plan, err := order.BeltPlan(string(s), rank, p, n, m)
	if err != nil {
		t.Fatal(err)
	}
	over := make(map[order.Op][]int)
	kept := make(map[int]bool)
	for _, u := range plan {
		if u.Phase == 'W' {
			continue
		}
		if u.Gather {
			over[u.Op] = slices.Sorted(maps.Keys(kept))
		}
		kept[u.Chunk] = u.Keep
		if !u.Keep {
			delete(kept, u.Chunk)
		}
	}
	return over
}

// earlyReached reports whether an early row order.Wiring drops goes to
// rank: a pass of rank's order.BeltPlan that takes no row although the keep
// rule ships its belt segment (order.Shipped).
func earlyReached(t *testing.T, s Strategy, rank, p, n, m int) bool {
	plan, err := order.BeltPlan(string(s), rank, p, n, m)
	if err != nil {
		t.Fatal(err)
	}
	ships, err := order.Shipped(string(s), p, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range plan {
		belt := 0
		if u.Phase == 'B' {
			belt = 1
		}
		if u.Phase != 'W' && !u.Gather && ships[belt][u.Chunk][u.MB/p] {
			return true
		}
	}
	return false
}

// checkBeltKept pins a WeiPipe rank's weight side as the receive for pass op
// starts: op is a pass the plan gathers; no stage is bound, and no module but
// the owned chunk's; the chunks kept are keptOver's for op — unless early
// rows reach the rank (earlyReached), at most one, so the pass binds at most
// two copies; the owned chunk's payload, and any copy of it a holder keeps,
// is the master's own buffer; and the bytes are the resident state (the
// owned chunk × 3) and the copies of other chunks, nothing else.
func checkBeltKept(t *testing.T, w *WeiPipe, r int, op order.Op, keptOver map[order.Op][]int, early bool) {
	want, ok := keptOver[op]
	if !ok {
		t.Errorf("rank %d: received %v, a pass the plan does not gather", r, op)
		return
	}
	lo, hi := w.chunkRange(w.ownChunk)
	if got := boundModules(w.mdl); w.stage.buf != nil || !slices.Equal(got, rangeOf(lo, hi)) {
		t.Errorf("rank %d, receive for %v: modules %v bound (stage bound %v), want only the owned %v",
			r, op, got, w.stage.buf != nil, rangeOf(lo, hi))
	}
	got := keptChunks(w)
	if !slices.Equal(got, want) {
		t.Errorf("rank %d, receive for %v: chunks %v kept, the plan keeps %v", r, op, got, want)
	}
	if w.ownBelt == nil || &w.ownBelt[0] != &w.masterBuf[0] {
		t.Errorf("rank %d, receive for %v: the owned payload is not the master's buffer", r, op)
	}
	own := w.kept[w.ownChunk]
	master := own != nil && &own[0] == &w.masterBuf[0]
	if own != nil && !master && order.Holds(r, w.ownChunk, w.t.Size(), w.groupSize()) {
		t.Errorf("rank %d, receive for %v: a copy of the owned chunk is kept", r, op)
	}
	if len(got)+1 > 2 && !early {
		t.Errorf("rank %d, receive for %v: %d copies held besides the one arriving", r, op, len(got))
	}
	n := 3 * w.mdl.ChunkSize(lo, hi)
	for _, c := range got {
		if c == w.ownChunk && master {
			continue
		}
		clo, chi := w.chunkRange(c)
		n += w.mdl.ChunkSize(clo, chi) + w.pad
	}
	if w.shadow == nil {
		if bytes := weightSideBytes(w); bytes != 4*n {
			t.Errorf("rank %d, receive for %v: %d weight-side bytes, want %d", r, op, bytes, 4*n)
		}
	}
}

// rangeOf lists lo … hi−1.
func rangeOf(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// fsdpHeldOverGathers returns, for each gather of order.FSDP's plan in turn,
// the modules kept bound over it.
func fsdpHeldOverGathers(modules, nLocal int) [][]int {
	var over [][]int
	held := make(map[int]bool)
	for _, u := range order.FSDP(modules, nLocal) {
		if u.Gather {
			over = append(over, slices.Sorted(maps.Keys(held)))
		}
		held[u.Chunk] = true
		if !u.Keep {
			delete(held, u.Chunk)
		}
	}
	return over
}

// boundModules lists the modules of mdl that are views of some buffer.
func boundModules(mdl *model.Model) []int {
	var out []int
	for i, m := range mdl.Modules {
		ps := m.Params()
		if len(ps.Get(ps.Names()[0]).Data) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// checkFSDPHeld pins an FSDP rank's weight side at the start of collective
// seq of its first iteration: seqs 1 … len(heldOver) are the plan's gathers,
// over which the modules heldOver names stay bound; the reduce-scatters and
// scalar reduces after them run with no module bound. The bytes are the
// shards × 3, the full-size gradients and those modules, nothing else.
func checkFSDPHeld(t *testing.T, f *FSDP, r, seq int, heldOver [][]int) {
	var want []int
	if seq <= len(heldOver) {
		want = heldOver[seq-1]
	}
	if got := boundModules(f.mdl); !slices.Equal(got, want) {
		t.Errorf("rank %d, collective %d: modules %v bound, the plan keeps %v", r, seq, got, want)
	}
	n := f.mdl.NumParams()
	for _, p := range f.pieces {
		n += 3 * len(p.w)
	}
	for _, i := range want {
		n += f.mdl.ModuleParamSize(i)
	}
	if got := weightSideBytes(f); got != 4*n {
		t.Errorf("rank %d, collective %d: %d weight-side bytes, want %d", r, seq, got, 4*n)
	}
}

// trainAll runs one iteration on every rank of a ring.
func trainAll(t *testing.T, trainers []Trainer, batches []data.Batch) {
	t.Helper()
	var wg sync.WaitGroup
	for _, tr := range trainers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.TrainIteration(batches); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotCopiesNoTemporaries pins that a checkpoint copies straight
// between the trainers' pieces and the snapshot's vectors. At p = 4, for
// every strategy and for wzb2 under buddy replication, CaptureSnapshot
// allocates the snapshot — weights, m and v — and a little bookkeeping, and
// RestoreSnapshot nothing that grows with the model. The model is large
// enough (about 200 K parameters, 0.8 MB a vector) that a full-model or
// full-piece temporary would exceed the slack many times over.
func TestSnapshotCopiesNoTemporaries(t *testing.T) {
	cfg := model.Config{Vocab: 64, Hidden: 64, Layers: 4, Heads: 4, MaxSeq: 8, Seed: 42}
	total := model.BuildShells(cfg).NumParams()
	const slack = 64 << 10
	type run struct {
		name  string
		s     Strategy
		p     int
		buddy bool
	}
	runs := []run{{"serial", StrategySerial, 1, false}, {"weipipe-dp", StrategyWeiPipeDP, 4, false},
		{"wzb2_buddy", StrategyWZB2, 4, true}}
	for _, s := range Strategies() {
		runs = append(runs, run{string(s), s, 4, false})
	}
	leastAlloc := func(f func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	for _, rn := range runs {
		t.Run(rn.name, func(t *testing.T) {
			opts := eqOpts()
			opts.buddy, opts.GroupSize = rn.buddy, 2
			cl := comm.NewCluster(rn.p)
			trainers := make([]Trainer, rn.p)
			for r := range trainers {
				tr, err := New(rn.s, cl.Transport(r), cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				trainers[r] = tr
			}
			cl.Close()
			var snap *checkpoint.Snapshot
			capture := leastAlloc(func() {
				var err error
				if snap, err = CaptureSnapshot(trainers, 0); err != nil {
					t.Fatal(err)
				}
			})
			restore := leastAlloc(func() {
				if err := RestoreSnapshot(snap, trainers); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("capture %d B, restore %d B; the snapshot is %d B", capture, restore, 3*4*total)
			if limit := uint64(3*4*total + slack); capture > limit {
				t.Errorf("CaptureSnapshot allocated %d B, limit %d", capture, limit)
			}
			if restore > slack {
				t.Errorf("RestoreSnapshot allocated %d B, limit %d", restore, slack)
			}
		})
	}
}

// TestShareGatherCopiesNoTemporaries pins that a checkpoint gather packs a
// rank's share once, into a pooled buffer every peer is handed a reference
// to: at p = 4, with the pool warm, the four ranks exchanging their
// full-state shares (about 0.6 MB each) allocate nothing that grows with
// the model, where packing a fresh copy per gather allocates all four.
func TestShareGatherCopiesNoTemporaries(t *testing.T) {
	if comm.LossyPool() {
		t.Skip("sync.Pool drops Puts in this build: released payloads do not all come back")
	}
	cfg := model.Config{Vocab: 64, Hidden: 64, Layers: 4, Heads: 4, MaxSeq: 8, Seed: 42}
	const p, slack = 4, 64 << 10
	cl := comm.NewCluster(p)
	defer cl.Close()
	snaps, owns := make([]*checkpoint.Snapshot, p), make([]share, p)
	for r := range p {
		tr, err := New(StrategyWZB2, cl.Transport(r), cfg, eqOpts())
		if err != nil {
			t.Fatal(err)
		}
		snaps[r] = newCapture(tr.Model(), 0, true)
		owns[r] = export(tr, snaps[r])
	}
	everyone := comm.Membership{OldSize: p}.Survivors()
	gather := func() {
		var wg sync.WaitGroup
		for r := range p {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := RankAssignment{Rank: r, World: p}
				tag := Tag{Kind: comm.KindCtl, A: gatherTag}
				if _, err := exchangeShares(a, cl.Transport(r), comm.Deadlines{Barrier: 10 * time.Second}, tag, everyone, snaps[r], owns[r]); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	gather()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gather()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("gather %d B; the shares are %d B", least, 3*4*len(snaps[0].Weights))
	if least > slack {
		t.Errorf("a warm gather allocated %d B, limit %d", least, slack)
	}
}

// TestRestoreThenAssembleRoundTrips loads a snapshot into every strategy at
// p = 3 — FSDP's shards of uneven length, PP stages and WeiPipe chunks of
// unequal size — and reads it back: AssembleWeights returns the snapshot's
// weights bit for bit, from a weight-only snapshot (the path a -resume
// takes) and from a full-state one, whose optimizer moments every trainer
// must hand back unchanged too.
func TestRestoreThenAssembleRoundTrips(t *testing.T) {
	cfg := eqCfg()
	total := model.BuildShells(cfg).NumParams()
	rng := tensor.NewRNG(5)
	random := func() []float32 {
		v := make([]float32, total)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	weightOnly := &checkpoint.Snapshot{Config: cfg, Weights: random(), Sections: map[string][]float32{}}
	full := &checkpoint.Snapshot{Config: cfg, Weights: random(), Step: 2, Sections: map[string][]float32{
		"adam.m": random(), "adam.v": random(), "adam.step": {2},
	}}
	type run struct {
		s Strategy
		p int
	}
	runs := []run{{StrategySerial, 1}, {StrategyWeiPipeDP, 3}}
	for _, s := range Strategies() {
		runs = append(runs, run{s, 3})
	}
	sameBits := func(got, want []float32) bool {
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return len(got) == len(want)
	}
	for _, rn := range runs {
		t.Run(string(rn.s), func(t *testing.T) {
			for _, snap := range []*checkpoint.Snapshot{weightOnly, full} {
				cl := comm.NewCluster(rn.p)
				trainers := make([]Trainer, rn.p)
				for r := range trainers {
					tr, err := New(rn.s, cl.Transport(r), cfg, eqOpts())
					if err != nil {
						t.Fatal(err)
					}
					trainers[r] = tr
				}
				cl.Close()
				kind := "weight-only"
				if fullState(snap) {
					kind = "full-state"
				}
				if err := RestoreSnapshot(snap, trainers); err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if !sameBits(AssembleWeights(trainers), snap.Weights) {
					t.Errorf("%s: assembled weights differ from the snapshot's", kind)
				}
				if !fullState(snap) {
					continue
				}
				got, err := CaptureSnapshot(trainers, int(snap.Step))
				if err != nil {
					t.Fatal(err)
				}
				for _, sec := range []string{"adam.m", "adam.v", "adam.step"} {
					if !sameBits(got.Sections[sec], snap.Sections[sec]) {
						t.Errorf("%s: %s differs from the snapshot's", kind, sec)
					}
				}
			}
		})
	}
}

// gradProbe calls check, on its rank's goroutine, at every message the rank
// sends or receives, by any of the three sends. It only observes.
type gradProbe struct {
	comm.Transport
	check func()
}

func (g *gradProbe) Send(dst int, tag comm.Tag, data []float32) error {
	g.check()
	return g.Transport.Send(dst, tag, data)
}

func (g *gradProbe) SendOwned(dst int, tag comm.Tag, payload []float32) error {
	g.check()
	return g.Transport.SendOwned(dst, tag, payload)
}

func (g *gradProbe) Forward(dst int, tag comm.Tag, payload []float32) error {
	g.check()
	return g.Transport.Forward(dst, tag, payload)
}

func (g *gradProbe) Recv(src int, tag comm.Tag) ([]float32, error) {
	g.check()
	return g.Transport.Recv(src, tag)
}

func (g *gradProbe) RecvTimeout(src int, tag comm.Tag, timeout time.Duration) ([]float32, error) {
	g.check()
	return g.Transport.RecvTimeout(src, tag, timeout)
}

// TestHeldGradientsWithinCharge: the gradient buffers of chunks it does not
// own that a rank holds between W passes — a deferred round's partial
// (order.Deferred), and at p=2 the other chunk's accumulator between its
// chain uses — number at most what the memory model charges
// (cost.Workload.GradSlots), and the charge is at most two, on every WeiPipe
// strategy at p 1…8 and n ∈ {p, 2p, 3p}, in process and over TCP. A rank's
// holdings change only at its W passes, and it is checked at every message
// it sends or receives. From p=3 the worst rank meets the charge there, so
// the charge is no looser than the runtime; at p=2 a rank holding the other
// chunk's accumulator sends and receives nothing until it retires it.
func TestHeldGradientsWithinCharge(t *testing.T) {
	const iters = 2
	cfg := eqCfg()
	cfg.Layers = 8 // a chunk for each of up to 8 ranks
	for _, overTCP := range []bool{false, true} {
		for _, s := range beltStrategies {
			for p := 1; p <= 8; p++ {
				for _, n := range []int{p, 2 * p, 3 * p} {
					charge := cost.Workload{H: cfg.Hidden, S: cfg.MaxSeq, G: 2, L: cfg.Layers, N: n, P: p}.GradSlots(string(s))
					if charge > 2 {
						t.Errorf("%s p=%d n=%d: the memory model charges %d held gradients, at most 2", s, p, n, charge)
					}
					var trs []comm.Transport
					if overTCP {
						trs = dialMesh(t, p, comm.TCPOptions{})
					} else {
						trs = comm.NewCluster(p).Transports()
					}
					trainers := make([]*WeiPipe, p)
					peak := make([]int, p)
					for r := range trs {
						trs[r] = &gradProbe{Transport: trs[r], check: func() {
							w := trainers[r]
							if w == nil {
								return
							}
							held := slices.DeleteFunc(heldChunks(w.dAcc), func(c int) bool { return c == w.ownChunk })
							if len(held) > charge {
								t.Errorf("%s p=%d n=%d tcp=%v rank %d: holds the gradients of chunks %v, the memory model charges %d",
									s, p, n, overTCP, r, held, charge)
							}
							peak[r] = max(peak[r], len(held))
						}}
					}
					errs := make([]error, p)
					closeAll := failFast(trs)
					opts := eqOpts()
					opts.GroupSize = ringGroupSize(p)
					batches := data.Microbatches(7, n, 2, cfg.Vocab, cfg.MaxSeq)
					var wg sync.WaitGroup
					for r := range trs {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							defer func() {
								if errs[r] != nil {
									closeAll()
								}
							}()
							tr, err := New(s, trs[r], cfg, opts)
							if errs[r] = err; err != nil {
								return
							}
							trainers[r] = tr.(*WeiPipe)
							for i := 0; i < iters && errs[r] == nil; i++ {
								_, errs[r] = tr.TrainIteration(batches)
							}
						}(r)
					}
					wg.Wait()
					for _, tr := range trs {
						tr.Close()
					}
					for r, err := range errs {
						if err != nil {
							t.Fatalf("%s p=%d n=%d tcp=%v rank %d: %v", s, p, n, overTCP, r, err)
						}
					}
					if got := slices.Max(peak); p >= 3 && got != charge {
						t.Errorf("%s p=%d n=%d tcp=%v: ranks held at most %d gradients, the memory model charges %d",
							s, p, n, overTCP, got, charge)
					}
				}
			}
		}
	}
}
