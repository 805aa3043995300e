package pipeline

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/trace"
)

// The one driver: RunResilient supervises one RunRank per rank, and RunRank
// is the loop every rank runs. These tests pin what the wire gathers must
// reproduce from the in-memory capture and assembly, for every strategy;
// the resume rule; and per-rank tracing.

// handTrained builds s on a p-rank in-process cluster and trains iters
// iterations on it directly — the in-memory reference the driver's gathers
// must match.
func handTrained(t *testing.T, s Strategy, p int, opts Options, iters int,
	batches func(int) []data.Batch) []Trainer {
	t.Helper()
	cl := comm.NewCluster(p)
	t.Cleanup(cl.Close)
	trainers := make([]Trainer, p)
	for r := range trainers {
		tr, err := New(s, cl.Transport(r), eqCfg(), opts)
		if err != nil {
			t.Fatal(err)
		}
		trainers[r] = tr
	}
	for i := 0; i < iters; i++ {
		trainAll(t, trainers, batches(i))
	}
	return trainers
}

// runFleet runs one bare RunRank per rank over an in-process cluster — the
// driver without its supervisor — and returns the outcomes. The endpoints
// are the test's: it closes them once every rank is home.
func runFleet(t *testing.T, spec RunSpec, hooks RunHooks) []*RankOutcome {
	t.Helper()
	p := spec.World
	cl := comm.NewCluster(p)
	defer cl.Close()
	outs := make([]*RankOutcome, p)
	var wg sync.WaitGroup
	for r := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := RunRank(RankAssignment{Rank: r, World: p, SeedFrom: -1}, cl.Transport(r), spec, hooks)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			outs[r] = out
		}()
	}
	wg.Wait()
	for r, o := range outs {
		if o == nil || !o.Done {
			t.Fatalf("rank %d did not complete: %+v", r, o)
		}
	}
	return outs
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// sameSnapshot reports how got differs from want (nil when bit-identical).
func sameSnapshot(got, want *checkpoint.Snapshot) error {
	if got == nil || got.Step != want.Step || !sameBits(got.Weights, want.Weights) {
		return fmt.Errorf("step or weights differ")
	}
	if len(got.Sections) != len(want.Sections) {
		return fmt.Errorf("%d sections, want %d", len(got.Sections), len(want.Sections))
	}
	for name, sec := range want.Sections {
		if !sameBits(got.Sections[name], sec) {
			return fmt.Errorf("section %s differs", name)
		}
	}
	return nil
}

// The checkpoint RunRank's ranks gather over the wire is CaptureSnapshot's
// bit for bit — weights, moments, optimizer step and spike window — for
// every strategy, with the buddy replica on and off.
func TestDriverWireCheckpointMatchesCapture(t *testing.T) {
	const iters, n = 3, 6
	for _, s := range append(Strategies(), StrategySerial, StrategyWeiPipeDP) {
		for _, p := range []int{1, 2, 3} {
			if s == StrategySerial && p > 1 {
				continue
			}
			for _, buddy := range []bool{false, true} {
				spec := eqSpec(s, p, iters, n)
				spec.Options.Guard = true
				spec.CheckpointEvery = iters
				if buddy {
					spec.Elastic = ElasticShrink // the repair ladder turns buddy replication on
				}
				res, err := RunResilient(spec, RunHooks{})
				if err != nil {
					t.Fatalf("%s p=%d buddy=%v: %v", s, p, buddy, err)
				}
				opts := spec.Options
				opts.buddy = buddy
				want, err := CaptureSnapshot(handTrained(t, s, p, opts, iters, eqBatches(iters, n)), iters)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSnapshot(res.Checkpoint, want); err != nil {
					t.Errorf("%s p=%d buddy=%v: wire checkpoint vs CaptureSnapshot: %v", s, p, buddy, err)
				}
			}
		}
	}
}

// The final weights the ranks gather are AssembleWeights' for every
// strategy, at p = 3: uneven FSDP shards, PP stages and WeiPipe chunks.
func TestDriverFinalWeightsMatchAssemble(t *testing.T) {
	const p, iters, n = 3, 2, 6
	runs := []struct {
		s Strategy
		p int
	}{{StrategySerial, 1}, {StrategyWeiPipeDP, p}}
	for _, s := range Strategies() {
		runs = append(runs, struct {
			s Strategy
			p int
		}{s, p})
	}
	for _, rn := range runs {
		res, err := RunCluster(rn.s, rn.p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
		if err != nil {
			t.Fatalf("%s: %v", rn.s, err)
		}
		want := AssembleWeights(handTrained(t, rn.s, rn.p, eqOpts(), iters, eqBatches(iters, n)))
		if !sameBits(res.Weights, want) {
			t.Errorf("%s: final weights differ from AssembleWeights", rn.s)
		}
	}
}

// A weight-only snapshot seeds the weights alone — iteration 0 on a fresh
// optimizer, whatever its Step says — while a full-state snapshot resumes at
// its Step, through RunResilient and through a bare RunRank fleet alike.
func TestDriverResumeRule(t *testing.T) {
	const p, iters, cut, n = 2, 5, 3, 4
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	weightOnly := checkpoint.FromModel(model.Build(eqCfg()))
	weightOnly.Step = 5
	spec := eqSpec(StrategyWZB2, p, cut, n)
	spec.CheckpointEvery = cut
	first, err := RunResilient(spec, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	spec = eqSpec(StrategyWZB2, p, iters, n)
	drivers := map[string]func(seed *checkpoint.Snapshot) ([]float64, []float32){
		"RunResilient": func(seed *checkpoint.Snapshot) ([]float64, []float32) {
			res, err := RunResilient(spec, RunHooks{Snapshot: seed})
			if err != nil {
				t.Fatal(err)
			}
			return res.Losses, res.Weights
		},
		"RunRank": func(seed *checkpoint.Snapshot) ([]float64, []float32) {
			out := runFleet(t, spec, RunHooks{Snapshot: seed})[0]
			return out.Losses, out.Weights
		},
	}
	for name, run := range drivers {
		losses, weights := run(weightOnly)
		bitIdentical(t, name+" from a weight-only snapshot", losses, ref.Losses, weights, ref.Weights)
		losses, weights = run(first.Checkpoint)
		if slices.ContainsFunc(losses[:cut], func(l float64) bool { return l != 0 }) {
			t.Errorf("%s retrained iterations before the full-state snapshot's step: %v", name, losses)
		}
		bitIdentical(t, name+" from a full-state snapshot", losses[cut:], ref.Losses[cut:], weights, ref.Weights)
	}
}

// Every strategy resumes from its own mid-run checkpoint on the exact
// trajectory of the uninterrupted run.
func TestDriverResumeEveryStrategy(t *testing.T) {
	const iters, cut, n = 4, 2, 4
	for _, s := range append(Strategies(), StrategySerial, StrategyWeiPipeDP) {
		p := 2
		if s == StrategySerial {
			p = 1
		}
		spec := eqSpec(s, p, iters, n)
		whole, err := RunResilient(spec, RunHooks{})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		first := spec
		first.Iters, first.CheckpointEvery = cut, cut
		part, err := RunResilient(first, RunHooks{})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		rest, err := RunResilient(spec, RunHooks{Snapshot: part.Checkpoint})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		bitIdentical(t, string(s)+" resumed vs uninterrupted",
			rest.Losses[cut:], whole.Losses[cut:], rest.Weights, whole.Weights)
	}
}

// A RunRank fleet traces per rank: one trace.PerIteration row per rank per
// iteration, as many as RunCluster's.
func TestDriverRunRankFleetTraces(t *testing.T) {
	const p, iters, n = 2, 3, 4
	rows := func(run func(set *trace.Set)) int {
		set := trace.NewSet(p, 1<<14)
		run(set)
		return len(trace.PerIteration(set.Events()))
	}
	fleet := rows(func(set *trace.Set) {
		spec := eqSpec(StrategyWZB2, p, iters, n)
		spec.Options.Trace = set
		runFleet(t, spec, RunHooks{})
	})
	cluster := rows(func(set *trace.Set) {
		opts := eqOpts()
		opts.Trace = set
		if _, err := RunCluster(StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, n)); err != nil {
			t.Fatal(err)
		}
	})
	if fleet != p*iters || cluster != p*iters {
		t.Fatalf("metrics rows: RunRank fleet %d, RunCluster %d, want %d", fleet, cluster, p*iters)
	}
}
