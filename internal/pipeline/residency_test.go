package pipeline

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
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
// its model's storage, master weights, optimizer moments, gradient sets and
// buffers, and buddy state — counted once each.
func weightSideBytes(tr Trainer) int {
	var r residency
	for _, m := range tr.Model().Modules {
		r.sets(m.Params())
	}
	switch tr := tr.(type) {
	case *WeiPipe:
		r.add(tr.masterW, tr.rbW, tr.rbM, tr.rbV)
		r.opt(tr.opt)
		r.sets(tr.wGrads...)
		if b := tr.buddy; b != nil {
			r.add(b.w, b.scratch, b.pendingD, b.rbW, b.rbM, b.rbV)
			r.opt(b.opt)
		}
	case *PP:
		r.add(tr.flatW, tr.flatG)
		r.opt(tr.opt)
		r.sets(tr.grads...)
	case *FSDP:
		r.add(tr.shards...)
		r.add(tr.gradFlat...)
		r.sets(tr.grads...)
		for _, o := range tr.opts {
			r.opt(o)
		}
	}
	return r.bytes()
}

// TestRankHoldsOnlyItsWeights pins, from shapes, what a rank keeps of the
// weights, before and after a step, at p ∈ {2, 3, 4}. In fp32 elements:
//
//   - WeiPipe (flat and grouped): its owned chunk × 3 — master, m, v. Buddy
//     replication adds the owned chunk's one-deep rollback (× 3) and the
//     successor chunk's shadow × 8: weights, m, v, their rollback, the
//     replay scratch and the self-delivery stash.
//   - PP: its stage × 4 — weights, gradients, m, v.
//   - FSDP: its shards × 3 — weights, m, v — and the full-size gradient
//     buffers the reduce-scatter consumes.
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
		{"wzb2g", StrategyWZB2G, false}, {"1f1b", Strategy1F1B, false}, {"fsdp", StrategyFSDP, false}}
	for _, rn := range runs {
		for p := 2; p <= 4; p++ {
			t.Run(fmt.Sprintf("%s_p%d", rn.name, p), func(t *testing.T) {
				opts := eqOpts()
				opts.buddy = rn.buddy
				if opts.GroupSize = 2; p%2 != 0 {
					opts.GroupSize = p
				}
				cl := comm.NewCluster(p)
				defer cl.Close()
				trainers := make([]Trainer, p)
				for r := range trainers {
					tr, err := New(rn.s, cl.Transport(r), cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					trainers[r] = tr
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
							n = 2*n + 8*tr.mdl.ChunkSize(blo, bhi)
						}
						return 4 * n
					case *PP:
						return 4 * 4 * tr.mdl.ChunkSize(tr.lo, tr.hi)
					case *FSDP:
						n := tr.mdl.NumParams()
						for _, s := range tr.shards {
							n += 3 * len(s)
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
				trainAll(t, trainers, eqBatches(1, 2*p)(0))
				check("after a step")
			})
		}
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
