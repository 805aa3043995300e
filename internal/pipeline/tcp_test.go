package pipeline

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/tensor"
)

// dialMesh brings up a p-rank TCP mesh on loopback.
func dialMesh(t *testing.T, p int, opts comm.TCPOptions) []comm.Transport {
	t.Helper()
	addrs, err := comm.LoopbackAddrs(p)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]comm.Transport, p)
	dialErrs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], dialErrs[r] = comm.DialTCPOpts(r, addrs, opts)
		}(r)
	}
	wg.Wait()
	for _, err := range dialErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return trs
}

// runOnTransports trains strategy s on the equivalence model over pre-built
// transports and returns rank 0's losses plus the assembled weights. The
// caller owns the transports' lifetime.
func runOnTransports(t *testing.T, trs []comm.Transport, s Strategy, opts Options, iters, n int) ([]float64, []float32) {
	t.Helper()
	return runCfgOnTransports(t, trs, s, eqCfg(), opts, iters, eqBatches(iters, n))
}

// runCfgOnTransports is runOnTransports for any model and batch stream.
func runCfgOnTransports(t *testing.T, trs []comm.Transport, s Strategy, cfg model.Config, opts Options,
	iters int, batches func(int) []data.Batch) ([]float64, []float32) {
	t.Helper()
	p := len(trs)
	trainers := make([]Trainer, p)
	losses := make([][]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := New(s, trs[r], cfg, opts)
			if err != nil {
				errs[r] = err
				return
			}
			trainers[r] = tr
			for i := 0; i < iters; i++ {
				loss, err := tr.TrainIteration(batches(i))
				if err != nil {
					errs[r] = err
					return
				}
				losses[r] = append(losses[r], loss)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return losses[0], AssembleWeights(trainers)
}

// runTCP is RunCluster on a clean TCP loopback mesh: the fabric where a
// relayed weight chunk is shared between the link writer and the stage that
// computes out of it, instead of copied. opts.BF16Wire selects the mesh's
// codec as it selects the in-process cluster's.
func runTCP(t *testing.T, s Strategy, p int, cfg model.Config, opts Options,
	iters int, batches func(int) []data.Batch) ([]float64, []float32) {
	t.Helper()
	tcpOpts := comm.TCPOptions{DialTimeout: 10 * time.Second}
	if opts.BF16Wire {
		tcpOpts.Codec = comm.BeltBF16
	}
	trs := dialMesh(t, p, tcpOpts)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	return runCfgOnTransports(t, trs, s, cfg, opts, iters, batches)
}

// One belt path, two fabrics: every lossless strategy must land on the same
// bits over TCP — where socket, relay and GEMM share one buffer — as on the
// in-process fabric, which copies a shared chunk at the rank boundary. The
// TestOverlap* names date from when these tests compared a background belt
// engine with the blocking path; what overlaps compute now is the relay each
// hop enqueues before its stage runs, and what they pin is the property that
// outlived the engine.

func TestOverlapBitIdenticalAllStrategies(t *testing.T) {
	const iters, n = 2, 8
	for _, s := range Strategies() {
		for _, p := range []int{2, 4} {
			s, p := s, p
			t.Run(string(s)+"_p"+string(rune('0'+p)), func(t *testing.T) {
				t.Parallel()
				ref, err := RunCluster(s, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
				if err != nil {
					t.Fatalf("in-process: %v", err)
				}
				losses, weights := runTCP(t, s, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
				bitIdentical(t, string(s)+" over TCP", losses, ref.Losses, weights, ref.Weights)
			})
		}
	}
}

func TestOverlapBitIdenticalOddWorkerCount(t *testing.T) {
	// Uneven chunk sizes: every bound slice and every shared buffer has its
	// own length.
	const iters, n = 1, 6
	for _, s := range []Strategy{StrategyWZB2, StrategyWeiPipeNaive, StrategyFSDP} {
		ref, err := RunCluster(s, 3, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
		if err != nil {
			t.Fatalf("%s in-process: %v", s, err)
		}
		losses, weights := runTCP(t, s, 3, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
		bitIdentical(t, string(s)+" over TCP", losses, ref.Losses, weights, ref.Weights)
	}
}

func TestOverlapBitIdenticalWithBuddyAndClip(t *testing.T) {
	// The belt must coexist with buddy replication (a copying send of the
	// retiring gradient buffer just before it is donated) and the
	// global-norm clip's scalar all-reduces.
	const iters, n = 2, 8
	opts := eqOpts()
	opts.Buddy = true
	opts.ClipNorm = 0.05
	ref, err := RunCluster(StrategyWZB2, 4, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	losses, weights := runTCP(t, StrategyWZB2, 4, eqCfg(), opts, iters, eqBatches(iters, n))
	bitIdentical(t, "wzb2+buddy+clip over TCP", losses, ref.Losses, weights, ref.Weights)
}

func TestOverlapBitIdenticalWeiPipeDP(t *testing.T) {
	// The hybrid runs each belt inside a Group transport: sharing and
	// donation must pass through the rank mapping and tag salt unchanged.
	const iters, n = 2, 8
	_, refTr := runHybrid(t, comm.NewCluster(4).Transports(), 2, iters, n, eqOpts())
	trs := dialMesh(t, 4, comm.TCPOptions{DialTimeout: 10 * time.Second})
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	_, gotTr := runHybrid(t, trs, 2, iters, n, eqOpts())
	ref := AssembleWeights(refTr[:2])
	got := AssembleWeights(gotTr[:2])
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("hybrid over TCP diverged at weight %d: %v != %v", i, got[i], ref[i])
		}
	}
}

// chaosTCPOpts is the shared chaotic failure model of the TCP equivalence
// tests.
func chaosTCPOpts() comm.TCPOptions {
	return comm.TCPOptions{
		DialTimeout:       10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		PeerDeadTimeout:   2 * time.Second,
		RetransmitTimeout: 40 * time.Millisecond,
		ReconnectBackoff:  5 * time.Millisecond,
		Chaos: &comm.ChaosConfig{
			Seed:      4242,
			Drop:      0.05,
			Dup:       0.05,
			Reorder:   0.05,
			Corrupt:   0.02,
			DelayProb: 0.05,
			MaxDelay:  2 * time.Millisecond,
		},
	}
}

// Real TCP with frame-level chaos: retransmission, duplication, reordering
// and corruption of frames whose payload the sending rank is computing out
// of at that moment must still produce the bit-exact in-process trajectory.
func TestOverlapChaosTCPWZB2(t *testing.T) {
	const p, iters, n = 2, 3, 4
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	trs := dialMesh(t, p, chaosTCPOpts())
	losses, weights := runOnTransports(t, trs, StrategyWZB2, eqOpts(), iters, n)
	bitIdentical(t, "chaos TCP", losses, ref.Losses, weights, ref.Weights)

	// The chaos must actually have exercised the reliability machinery.
	total := comm.NewStats()
	for _, tr := range trs {
		total.Add(tr.(comm.Meter).CommStats())
	}
	f := total.TotalFaults()
	if f.Retransmits+f.DupFrames+f.CorruptFrames == 0 {
		t.Error("chaos run recorded no transport faults; injection was a no-op")
	}
	for _, tr := range trs {
		tr.Close()
	}
	waitPipelineGoroutines(t, base)
}

func TestOverlapRecordsBeltStall(t *testing.T) {
	// The compute thread's waits for belt payloads are the run's measured
	// exposed communication: the belt moves at compute speed, so a run
	// provably waits, and the meter must say so.
	const iters, n = 2, 8
	res, err := RunCluster(StrategyWZB2, 4, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalComm().BeltStall() <= 0 {
		t.Error("run recorded no belt stall")
	}
}

func TestBF16WireStaysClose(t *testing.T) {
	// The bf16 belt codec perturbs but must not diverge (cf. the fp16
	// mixed-precision bound), and it must actually halve the weight-belt
	// wire volume.
	const iters, n = 2, 4
	wantLoss, _ := serialReference(t, iters, n)
	f32, err := RunCluster(StrategyWZB2, 2, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	opts := eqOpts()
	opts.BF16Wire = true
	res, err := RunCluster(StrategyWZB2, 2, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLoss {
		rel := math.Abs(res.Losses[i]-wantLoss[i]) / wantLoss[i]
		if rel > 0.05 {
			t.Errorf("iter %d: bf16-wire loss %.5f vs fp32 %.5f (rel %f)", i, res.Losses[i], wantLoss[i], rel)
		}
	}
	fw := f32.TotalComm().SentBytes(comm.KindWeight)
	bw := res.TotalComm().SentBytes(comm.KindWeight)
	if 2*bw != fw {
		t.Errorf("bf16 weight-belt bytes %d, want exactly half of fp32's %d", bw, fw)
	}
}

func TestBF16WireWithOverlapStaysClose(t *testing.T) {
	// Codec and relay compose: a relayed chunk already holds rounded values,
	// so packing it again (TCP, out of the shared buffer) or rounding its
	// private copy (in process) is idempotent and the two fabrics agree.
	const iters, n = 2, 4
	opts := eqOpts()
	opts.BF16Wire = true
	ref, err := RunCluster(StrategyWZB2, 2, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	losses, weights := runTCP(t, StrategyWZB2, 2, eqCfg(), opts, iters, eqBatches(iters, n))
	bitIdentical(t, "bf16 over TCP", losses, ref.Losses, weights, ref.Weights)
}

// TestWeiPipeOverTCP runs WeiPipe-Interleave across a real TCP mesh on
// loopback and checks it against the serial reference — the functional
// analogue of the paper's multi-node deployment.
func TestWeiPipeOverTCP(t *testing.T) {
	const p, iters, n = 2, 1, 4
	wantLoss, wantW := serialReference(t, iters, n)

	addrs, err := comm.LoopbackAddrs(p)
	if err != nil {
		t.Fatal(err)
	}
	trainers := make([]Trainer, p)
	transports := make([]*comm.TCPTransport, p)
	losses := make([]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := comm.DialTCP(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			transports[r] = tr
			trainer, err := New(StrategyWeiPipeInterleave, tr, eqCfg(), eqOpts())
			if err != nil {
				errs[r] = err
				return
			}
			trainers[r] = trainer
			batches := eqBatches(iters, n)
			for i := 0; i < iters; i++ {
				losses[r], errs[r] = trainer.TrainIteration(batches(i))
				if errs[r] != nil {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, tr := range transports {
		if tr != nil {
			tr.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if math.Abs(losses[0]-wantLoss[0]) > 1e-4 || math.Abs(losses[1]-wantLoss[0]) > 1e-4 {
		t.Errorf("TCP losses %v vs serial %v", losses, wantLoss[0])
	}
	got := AssembleWeights(trainers)
	if d := maxAbsDiff(got, wantW); d > 5e-4 {
		t.Errorf("TCP weights diff vs serial = %g", d)
	}
}

// TestOneFOneBOverTCP does the same for the activation-passing baseline.
func TestOneFOneBOverTCP(t *testing.T) {
	const p, iters, n = 2, 1, 4
	wantLoss, wantW := serialReference(t, iters, n)

	addrs, err := comm.LoopbackAddrs(p)
	if err != nil {
		t.Fatal(err)
	}
	trainers := make([]Trainer, p)
	transports := make([]*comm.TCPTransport, p)
	errs := make([]error, p)
	lossCh := make([]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := comm.DialTCP(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			transports[r] = tr
			trainer, err := New(Strategy1F1B, tr, eqCfg(), eqOpts())
			if err != nil {
				errs[r] = err
				return
			}
			trainers[r] = trainer
			batches := data.Microbatches(100, n, 2, 13, 6)
			lossCh[r], errs[r] = trainer.TrainIteration(batches)
		}(r)
	}
	wg.Wait()
	for _, tr := range transports {
		if tr != nil {
			tr.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if math.Abs(lossCh[0]-wantLoss[0]) > 1e-4 {
		t.Errorf("TCP 1F1B loss %v vs serial %v", lossCh[0], wantLoss[0])
	}
	got := AssembleWeights(trainers)
	if d := maxAbsDiff(got, wantW); d > 5e-4 {
		t.Errorf("TCP 1F1B weights diff vs serial = %g", d)
	}
}

// An iteration that dies mid-schedule — a peer crashes while chunks are
// shared between link writers, caches and bound stages — must give every
// reference back: nothing stays bound, no cache survives, and once the
// transports are closed no buffer is still shared.
func TestAbortedIterationReturnsBeltBuffers(t *testing.T) {
	const p, iters, n = 4, 3, 8
	for _, s := range []Strategy{StrategyWZB2, StrategyWZB2G} {
		tcpOpts := chaosTCPOpts()
		tcpOpts.Chaos = nil
		tcpOpts.PeerDeadTimeout = 300 * time.Millisecond
		trs := dialMesh(t, p, tcpOpts)
		// Rank 1 dies a little into the second iteration.
		crashed := comm.NewFaultTransport(trs[1], comm.FaultConfig{CrashAtSend: 60})
		trs[1] = crashed
		opts := eqOpts()
		opts.GroupSize = 2

		trainers := make([]Trainer, p)
		errs := make([]error, p)
		batches := eqBatches(iters, n)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				trainers[r], errs[r] = New(s, trs[r], eqCfg(), opts)
				for i := 0; i < iters && errs[r] == nil; i++ {
					_, errs[r] = trainers[r].TrainIteration(batches(i))
				}
			}(r)
		}
		wg.Wait()
		for _, tr := range trs {
			tr.Close()
		}
		if !crashed.Crashed() {
			t.Fatalf("%s: scheduled crash never fired; the test proved nothing", s)
		}
		for r, err := range errs {
			if err == nil {
				t.Errorf("%s rank %d: trained through a peer's death", s, r)
			}
			w := trainers[r].(*WeiPipe)
			if w.stage.buf != nil {
				t.Errorf("%s rank %d: a stage is still bound to a belt buffer", s, r)
			}
			if w.grouped != nil && len(w.grouped.cache) != 0 {
				t.Errorf("%s rank %d: %d cached shards survived the abort", s, r, len(w.grouped.cache))
			}
		}
		if n := comm.SharedBufs(); n != 0 {
			t.Errorf("%s: %d buffers still shared after abort and close", s, n)
		}
	}

	// The one abort that strikes while a stage is bound: a kernel check
	// firing inside its compute.
	inj := NewBitFlipInjector([]BitFlipEvent{{Site: FlipKernel, Word: 777, Bit: 30}})
	tensor.EnableABFT()
	tensor.SetABFTFault(inj.KernelHook())
	defer func() {
		tensor.SetABFTFault(nil)
		tensor.DisableABFT()
	}()
	cl := comm.NewCluster(2)
	trainers := make([]Trainer, 2)
	errs := make([]error, 2)
	batches := eqBatches(iters, 4)
	var wg sync.WaitGroup
	for r := range trainers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer cl.Close() // the first rank out unblocks the other
			trainers[r], errs[r] = New(StrategyWZB2, cl.Transport(r), eqCfg(), integrityOpts())
			for i := 0; i < iters && errs[r] == nil; i++ {
				_, errs[r] = trainers[r].TrainIteration(batches(i))
			}
		}(r)
	}
	wg.Wait()
	if inj.Fired() != 1 {
		t.Fatalf("kernel flip fired %d times, want 1", inj.Fired())
	}
	for r, tr := range trainers {
		if errs[r] == nil {
			t.Errorf("rank %d: trained through a kernel fault", r)
		}
		if tr.(*WeiPipe).stage.buf != nil {
			t.Errorf("rank %d: the interrupted stage is still bound to its belt buffer", r)
		}
	}
	if n := comm.SharedBufs(); n != 0 {
		t.Errorf("%d buffers still shared after a kernel fault", n)
	}
}
