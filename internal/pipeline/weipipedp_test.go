package pipeline

import (
	"math"
	"sync"
	"testing"

	"weipipe/internal/comm"
)

// runHybrid trains WeiPipe×DP over the given transports in rings of wpSize
// and returns every rank's last loss plus the trainers.
func runHybrid(t *testing.T, trs []comm.Transport, wpSize, iters, n int, opts Options) ([]float64, []Trainer) {
	t.Helper()
	world := len(trs)
	trainers := make([]Trainer, world)
	losses := make([]float64, world)
	errs := make([]error, world)
	batches := eqBatches(iters, n)
	fail := failFast(trs)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if errs[r] != nil {
					fail()
				}
			}()
			tr, err := NewWeiPipeDP(trs[r], eqCfg(), opts, wpSize)
			if err != nil {
				errs[r] = err
				return
			}
			trainers[r] = tr
			for i := 0; i < iters; i++ {
				losses[r], errs[r] = tr.TrainIteration(batches(i))
				if errs[r] != nil {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return losses, trainers
}

func TestWeiPipeDPMatchesSerial(t *testing.T) {
	const iters, n = 2, 12 // divisible by 2×2, 2×3 and 1×4 ring layouts
	wantLoss, wantW := serialReference(t, iters, n)
	for _, cfg := range []struct{ world, wp int }{{4, 2}, {6, 3}, {4, 4} /* degenerate: 1 replica */} {
		losses, trainers := runHybrid(t, comm.NewCluster(cfg.world).Transports(), cfg.wp, iters, n, eqOpts())
		for r := range losses {
			if math.Abs(losses[r]-wantLoss[iters-1]) > 1e-4 {
				t.Errorf("world=%d wp=%d rank %d: loss %.6f vs serial %.6f",
					cfg.world, cfg.wp, r, losses[r], wantLoss[iters-1])
			}
		}
		// assemble from replica 0's ring
		got := AssembleWeights(trainers[:cfg.wp])
		var maxd float64
		for i := range got {
			d := math.Abs(float64(got[i] - wantW[i]))
			if d > maxd {
				maxd = d
			}
		}
		if maxd > 5e-4 {
			t.Errorf("world=%d wp=%d: weights diverge by %g", cfg.world, cfg.wp, maxd)
		}
		// replicas agree: same chunk owner in replica 1 must match replica 0
		if cfg.world > cfg.wp {
			a := AssembleWeights(trainers[:cfg.wp])
			b := AssembleWeights(trainers[cfg.wp : 2*cfg.wp])
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("world=%d wp=%d: replicas diverged at weight %d", cfg.world, cfg.wp, i)
					break
				}
			}
		}
	}
}

func TestWeiPipeDPWithClipMatchesSerial(t *testing.T) {
	const iters, n = 1, 8
	opts := eqOpts()
	opts.ClipNorm = 0.05
	ref, err := RunCluster(StrategySerial, 1, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	_, trainers := runHybrid(t, comm.NewCluster(4).Transports(), 2, iters, n, opts)
	got := AssembleWeights(trainers[:2])
	if d := maxAbsDiff(got, ref.Weights); d > 5e-4 {
		t.Errorf("clipped hybrid diverges by %g", d)
	}
}

func TestWeiPipeDPValidation(t *testing.T) {
	cl := comm.NewCluster(4)
	if _, err := NewWeiPipeDP(cl.Transport(0), eqCfg(), eqOpts(), 3); err == nil {
		t.Fatal("indivisible ring size accepted")
	}
	// microbatch divisibility enforced at iteration time
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := NewWeiPipeDP(cl.Transport(r), eqCfg(), eqOpts(), 2)
			if err != nil {
				errs[r] = err
				return
			}
			_, errs[r] = tr.TrainIteration(eqBatches(1, 6)(0)) // 6 % (2 replicas × 2) != 0
		}(r)
	}
	wg.Wait()
	for r := 0; r < 4; r++ {
		if errs[r] == nil {
			t.Fatalf("rank %d accepted indivisible microbatches", r)
		}
	}
}

func TestGroupTransportIsolation(t *testing.T) {
	// Two groups reusing identical tags must not cross-deliver.
	cl := comm.NewCluster(4)
	g0a, _ := comm.NewGroup(cl.Transport(0), []int{0, 1}, 1)
	g0b, _ := comm.NewGroup(cl.Transport(1), []int{0, 1}, 1)
	g1a, _ := comm.NewGroup(cl.Transport(2), []int{2, 3}, 2)
	g1b, _ := comm.NewGroup(cl.Transport(3), []int{2, 3}, 2)

	tag := comm.Tag{Kind: comm.KindCtl, A: 1, B: 2}
	g0a.Send(1, tag, []float32{10})
	g1a.Send(1, tag, []float32{20})
	v0, err := g0b.Recv(0, tag)
	if err != nil || v0[0] != 10 {
		t.Fatalf("group0 recv: %v %v", v0, err)
	}
	v1, err := g1b.Recv(0, tag)
	if err != nil || v1[0] != 20 {
		t.Fatalf("group1 recv: %v %v", v1, err)
	}
}

func TestGroupValidation(t *testing.T) {
	cl := comm.NewCluster(4)
	if _, err := comm.NewGroup(cl.Transport(0), []int{0, 1}, 0); err == nil {
		t.Fatal("zero salt accepted")
	}
	if _, err := comm.NewGroup(cl.Transport(0), []int{1, 2}, 1); err == nil {
		t.Fatal("non-member accepted")
	}
	if _, err := comm.NewGroup(cl.Transport(0), []int{0, 0}, 1); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	if _, err := comm.NewGroup(cl.Transport(0), []int{0, 9}, 1); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestWeiPipeDPReportsArenaAndProgress pins that the hybrid is its ring's
// WeiPipe trainer in everything but TrainIteration: a run reports its arena
// high-water (ArenaMeter), and every rank posts its schedule position to the
// straggler watchdog's board (progressSink).
func TestWeiPipeDPReportsArenaAndProgress(t *testing.T) {
	const p, n = 4, 8
	opts := eqOpts()
	opts.GroupSize = 2
	res, err := RunCluster(StrategyWeiPipeDP, p, eqCfg(), opts, 1, eqBatches(1, n))
	if err != nil {
		t.Fatal(err)
	}
	if res.ArenaHighWater == 0 {
		t.Error("a weipipe-dp run reports no arena high-water")
	}

	cl := comm.NewCluster(p)
	defer cl.Close()
	board := NewProgressBoard(p)
	trainers := make([]Trainer, p)
	for r := range trainers {
		tr, err := New(StrategyWeiPipeDP, cl.Transport(r), eqCfg(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ps, ok := tr.(progressSink)
		if !ok {
			t.Fatalf("%T posts no progress", tr)
		}
		ps.SetProgressBoard(board, r)
		trainers[r] = tr
	}
	trainAll(t, trainers, eqBatches(1, n)(0))
	for r, pr := range board.snapshot() {
		if pr.phase == 0 {
			t.Errorf("rank %d posted no schedule position", r)
		}
	}
}
