package pipeline

import (
	"math"
	"runtime"
	"slices"
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

// failFast returns a func that closes every transport of trs the first
// time it is called. A rank that fails leaves its peers blocked in Recv for
// a message that will never come; the helpers that drive one goroutine per
// rank call it on the first rank error, so the peers fail too and the test
// reports the error instead of hanging (the benchmark's fleet step does the
// same).
func failFast(trs []comm.Transport) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, tr := range trs {
				tr.Close()
			}
		})
	}
}

// runCfgOnTransports is runOnTransports for any model and batch stream.
func runCfgOnTransports(t *testing.T, trs []comm.Transport, s Strategy, cfg model.Config, opts Options,
	iters int, batches func(int) []data.Batch) ([]float64, []float32) {
	t.Helper()
	p := len(trs)
	trainers := make([]Trainer, p)
	losses := make([][]float64, p)
	errs := make([]error, p)
	fail := failFast(trs)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if errs[r] != nil {
					fail()
				}
			}()
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
	// Every rank's error is reported: after a fail-fast close most of them
	// only say the transport closed, and the first rank to fail may not be
	// rank 0. Only these errors stop the test: a failure the caller recorded
	// earlier must not hide the setups it goes on to check.
	failed := false
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
			failed = true
		}
	}
	if failed {
		t.FailNow()
	}
	// Every rank reports the iteration's mean loss, so every rank's losses
	// must be rank 0's, bit for bit.
	for r := 1; r < p; r++ {
		for i := range losses[0] {
			if math.Float64bits(losses[r][i]) != math.Float64bits(losses[0][i]) {
				t.Fatalf("iter %d: rank %d loss %v, rank 0 loss %v", i, r, losses[r][i], losses[0][i])
			}
		}
	}
	return losses[0], AssembleWeights(trainers)
}

// runTCP is RunCluster on a clean TCP loopback mesh: the fabric where a
// relayed weight chunk is shared between the link writer and the stage that
// computes out of it, instead of copied. The mesh sends under codec (nil =
// f32), as runCodec's in-process fabric does.
func runTCP(t *testing.T, s Strategy, p int, cfg model.Config, opts Options,
	iters int, batches func(int) []data.Batch, codec comm.CodecFunc) ([]float64, []float32) {
	t.Helper()
	trs := dialMesh(t, p, comm.TCPOptions{Deadlines: comm.Deadlines{Dial: 10 * time.Second}, Codec: codec})
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
				losses, weights := runTCP(t, s, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n), nil)
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
		losses, weights := runTCP(t, s, 3, eqCfg(), eqOpts(), iters, eqBatches(iters, n), nil)
		bitIdentical(t, string(s)+" over TCP", losses, ref.Losses, weights, ref.Weights)
	}
}

func TestOverlapBitIdenticalWithBuddyAndClip(t *testing.T) {
	// The belt must coexist with buddy replication (a copying send of the
	// retiring gradient buffer just before it is donated) and the
	// global-norm clip's scalar all-reduces.
	const iters, n = 2, 8
	opts := buddyOpts()
	opts.ClipNorm = 0.05
	// The elastic driver turns buddy replication on in process.
	spec := eqSpec(StrategyWZB2, 4, iters, n)
	spec.Options = opts
	spec.Elastic = ElasticShrink
	ref, err := RunResilient(spec, RunHooks{})
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	losses, weights := runTCP(t, StrategyWZB2, 4, eqCfg(), opts, iters, eqBatches(iters, n), nil)
	bitIdentical(t, "wzb2+buddy+clip over TCP", losses, ref.Losses, weights, ref.Weights)
}

func TestOverlapBitIdenticalWeiPipeDP(t *testing.T) {
	// The hybrid runs each belt inside a Group transport: sharing and
	// donation must pass through the rank mapping and tag salt unchanged.
	const iters, n = 2, 8
	_, refTr := runHybrid(t, comm.NewCluster(4).Transports(), 2, iters, n, eqOpts())
	trs := dialMesh(t, 4, comm.TCPOptions{Deadlines: comm.Deadlines{Dial: 10 * time.Second}})
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
		Deadlines: comm.Deadlines{Dial: 10 * time.Second, Heartbeat: 20 * time.Millisecond, PeerDead: 2 * time.Second, Retransmit: 40 * time.Millisecond},
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
		total.Add(tr.CommStats())
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

func TestBF16BeltStaysClose(t *testing.T) {
	// The bf16 belt codec — the one reduced-precision wire — perturbs but
	// must not diverge: losses within a few percent of fp32 after two
	// iterations, on the zero-bubble schedule and on the interleaved one.
	// And it must actually halve the weight-belt wire volume.
	const iters, n = 2, 4
	wantLoss, _ := serialReference(t, iters, n)
	for _, s := range []Strategy{StrategyWZB2, StrategyWeiPipeInterleave} {
		t.Run(string(s), func(t *testing.T) {
			f32 := runCodec(t, s, 2, eqCfg(), eqOpts(), iters, eqBatches(iters, n), nil)
			res := runCodec(t, s, 2, eqCfg(), eqOpts(), iters, eqBatches(iters, n), comm.BeltBF16)
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
		})
	}
}

func TestBF16BeltWithOverlapStaysClose(t *testing.T) {
	// Codec and relay compose: a relayed chunk already holds rounded values,
	// so packing it again (TCP, out of the shared buffer) or rounding its
	// private copy (in process) is idempotent and the two fabrics agree.
	const iters, n = 2, 4
	ref := runCodec(t, StrategyWZB2, 2, eqCfg(), eqOpts(), iters, eqBatches(iters, n), comm.BeltBF16)
	losses, weights := runTCP(t, StrategyWZB2, 2, eqCfg(), eqOpts(), iters, eqBatches(iters, n), comm.BeltBF16)
	bitIdentical(t, "bf16 over TCP", losses, ref.Losses, weights, ref.Weights)
}

// TestWeiPipeOverTCP runs WeiPipe-Interleave across a real TCP mesh on
// loopback and checks it against the serial reference — the functional
// analogue of the paper's multi-node deployment. runCfgOnTransports checks
// that every rank reports rank 0's losses, so both ranks' losses are held to
// the serial one here.
func TestWeiPipeOverTCP(t *testing.T) {
	const p, iters, n = 2, 1, 4
	wantLoss, wantW := serialReference(t, iters, n)
	trs := dialMesh(t, p, comm.TCPOptions{})
	defer failFast(trs)()
	losses, got := runCfgOnTransports(t, trs, StrategyWeiPipeInterleave, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if math.Abs(losses[0]-wantLoss[0]) > 1e-4 {
		t.Errorf("TCP loss %v vs serial %v", losses[0], wantLoss[0])
	}
	if d := maxAbsDiff(got, wantW); d > 5e-4 {
		t.Errorf("TCP weights diff vs serial = %g", d)
	}
}

// TestOneFOneBOverTCP does the same for the activation-passing baseline.
func TestOneFOneBOverTCP(t *testing.T) {
	const p, iters, n = 2, 1, 4
	wantLoss, wantW := serialReference(t, iters, n)
	trs := dialMesh(t, p, comm.TCPOptions{})
	defer failFast(trs)()
	batches := func(int) []data.Batch { return data.Microbatches(100, n, 2, 13, 6) }
	losses, got := runCfgOnTransports(t, trs, Strategy1F1B, eqCfg(), eqOpts(), iters, batches)
	if math.Abs(losses[0]-wantLoss[0]) > 1e-4 {
		t.Errorf("TCP 1F1B loss %v vs serial %v", losses[0], wantLoss[0])
	}
	if d := maxAbsDiff(got, wantW); d > 5e-4 {
		t.Errorf("TCP 1F1B weights diff vs serial = %g", d)
	}
}

// An iteration that dies mid-schedule — a peer crashes while chunks are
// shared between link writers, caches, bound stages and kept copies, and
// owners hold their gradient accumulators — must give every reference back:
// nothing stays bound, kept or accumulated, no cache survives, and once the
// transports are closed no buffer is still shared.
func TestAbortedIterationReturnsBeltBuffers(t *testing.T) {
	const p, iters, n = 4, 3, 8
	// Rank 1 dies in the second iteration at a send it makes between its
	// first W pass on its own chunk 2 and its step, with its owner
	// accumulator held: its 25th send on wzb2, a weight relay, and its 20th
	// on wzb2g, a gradient hop.
	for _, tc := range []struct {
		s     Strategy
		crash int64
	}{{StrategyWZB2, 25}, {StrategyWZB2G, 20}} {
		s := tc.s
		tcpOpts := chaosTCPOpts()
		tcpOpts.Chaos = nil
		tcpOpts.Deadlines.PeerDead = 300 * time.Millisecond
		trs := dialMesh(t, p, tcpOpts)
		crashed := comm.NewFaultTransport(trs[1], comm.FaultConfig{CrashAtSend: tc.crash})
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
			if kept := keptChunks(w); len(kept) != 0 {
				t.Errorf("%s rank %d: kept copies of chunks %v survived the abort", s, r, kept)
			}
			if acc := heldChunks(w.dAcc); len(acc) != 0 {
				t.Errorf("%s rank %d: gradient accumulators of chunks %v survived the abort", s, r, acc)
			}
			if w.grouped != nil && len(w.grouped.cache) != 0 {
				t.Errorf("%s rank %d: %d cached shards survived the abort", s, r, len(w.grouped.cache))
			}
		}
		if n := comm.SharedBufs(); n != 0 {
			t.Errorf("%s: %d buffers still shared after abort and close", s, n)
		}
	}

	// An abort while a rank keeps a copy for its chunk's next use, or
	// computes on a copy it holds: the crash rank fails the first send it
	// makes in that state.
	//   - Rank 0 keeps the turnaround chunk's forward copy for its B pass.
	//   - At p=4, n=8 a rank keeps chunk 1 while a pass on chunk 2 relays.
	//     On the flat belt that is rank 2, which keeps chunk 1 from F6/1 to
	//     B2/1 and relays the copy of chunk 2 its B2/2 runs on, itself kept
	//     since F2/2, to rank 3; on the grouped belt rank 0, which keeps
	//     chunk 1 from F0/1 to F4/1 and, at F0/2, relays the chunk 2 it
	//     holds to rank 1. The relay fails.
	//   - On the grouped belt in one group of four, rank 1 holds chunk 1. It
	//     relays its own cached copy to rank 2 over TCP, binds it and then,
	//     pacing the belt, re-injects the next round to rank 0: that send
	//     fails with the copy bound and its relay in a link writer's hands.
	keeps := func(c int) func(w *WeiPipe) bool {
		return func(w *WeiPipe) bool { return slices.Contains(keptChunks(w), c) }
	}
	for _, kc := range []struct {
		s         Strategy
		groupSize int
		rank      int
		overTCP   bool
		what      string
		holding   func(w *WeiPipe) bool
	}{
		{StrategyWZB2, 2, 0, false, "keeping chunk 3", keeps(p - 1)},
		{StrategyWZB2G, 2, 0, false, "keeping chunk 3", keeps(p - 1)},
		{StrategyWZB2, 2, 2, false, "keeping chunk 1", keeps(1)},
		{StrategyWZB2G, 2, 0, false, "keeping chunk 1", keeps(1)},
		{StrategyWZB2G, 4, 1, true, "computing on its own chunk 1", func(w *WeiPipe) bool {
			lo, _ := w.chunkRange(1)
			return w.stage.buf != nil && !w.stage.grads && w.stage.lo == lo
		}},
	} {
		s := kc.s
		var trs []comm.Transport
		if kc.overTCP {
			tcpOpts := chaosTCPOpts()
			tcpOpts.Chaos = nil
			tcpOpts.Deadlines.PeerDead = 300 * time.Millisecond
			trs = dialMesh(t, p, tcpOpts)
		} else {
			trs = comm.NewCluster(p).Transports()
		}
		trainers := make([]*WeiPipe, p)
		errs := make([]error, p)
		crash := &heldCrash{Transport: trs[kc.rank], holding: func() bool {
			return trainers[kc.rank] != nil && kc.holding(trainers[kc.rank])
		}}
		trs[kc.rank] = crash
		closeAll := failFast(trs) // the first rank out unblocks the others
		opts := eqOpts()
		opts.GroupSize = kc.groupSize
		batches := eqBatches(iters, n)
		var wg sync.WaitGroup
		for r := range trainers {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer closeAll()
				var trainer Trainer
				if trainer, errs[r] = New(s, trs[r], eqCfg(), opts); errs[r] != nil {
					return
				}
				trainers[r] = trainer.(*WeiPipe)
				for i := 0; i < iters && errs[r] == nil; i++ {
					_, errs[r] = trainer.TrainIteration(batches(i))
				}
			}(r)
		}
		wg.Wait()
		if !crash.fired {
			t.Fatalf("%s: rank %d never sent while %s; the test proved nothing", s, kc.rank, kc.what)
		}
		for r, w := range trainers {
			if errs[r] == nil {
				t.Errorf("%s rank %d: trained through a peer's death", s, r)
			}
			if w != nil && (len(keptChunks(w)) != 0 || w.stage.buf != nil || len(heldChunks(w.dAcc)) != 0) {
				t.Errorf("%s rank %d: a kept, bound or accumulating belt buffer survived the abort", s, r)
			}
			if w != nil && w.grouped != nil && len(w.grouped.cache) != 0 {
				t.Errorf("%s rank %d: %d cached shards survived the abort", s, r, len(w.grouped.cache))
			}
		}
		if n := comm.SharedBufs(); n != 0 {
			t.Errorf("%s: %d buffers still shared after an abort with rank %d %s", s, n, kc.rank, kc.what)
		}
	}

	// An abort while an FSDP rank keeps a module gathered across its
	// forward→backward turnaround, in process and over TCP: rank 0 fails the
	// first send it makes while a module is bound — the gather of the head,
	// with the last block kept for its B pass.
	for _, overTCP := range []bool{false, true} {
		var trs []comm.Transport
		if overTCP {
			tcpOpts := chaosTCPOpts()
			tcpOpts.Chaos = nil
			tcpOpts.Deadlines.PeerDead = 300 * time.Millisecond
			trs = dialMesh(t, p, tcpOpts)
		} else {
			cl := comm.NewCluster(p)
			defer cl.Close()
			for r := 0; r < p; r++ {
				trs = append(trs, cl.Transport(r))
			}
		}
		trainers := make([]*FSDP, p)
		errs := make([]error, p)
		crash := &heldCrash{Transport: trs[0], holding: func() bool {
			return trainers[0] != nil && len(boundModules(trainers[0].mdl)) > 0
		}}
		trs[0] = crash
		closeAll := failFast(trs) // the first rank out unblocks the others
		batches := eqBatches(iters, n)
		var wg sync.WaitGroup
		for r := range trainers {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer closeAll()
				var trainer Trainer
				if trainer, errs[r] = New(StrategyFSDP, trs[r], eqCfg(), eqOpts()); errs[r] != nil {
					return
				}
				trainers[r] = trainer.(*FSDP)
				for i := 0; i < iters && errs[r] == nil; i++ {
					_, errs[r] = trainer.TrainIteration(batches(i))
				}
			}(r)
		}
		wg.Wait()
		if !crash.fired {
			t.Fatalf("fsdp tcp=%v: rank 0 never sent while holding a gathered module; the test proved nothing", overTCP)
		}
		for r, f := range trainers {
			if errs[r] == nil {
				t.Errorf("fsdp tcp=%v rank %d: trained through a peer's death", overTCP, r)
			}
			if f == nil {
				continue
			}
			if mods := boundModules(f.mdl); len(mods) != 0 {
				t.Errorf("fsdp tcp=%v rank %d: modules %v still bound after the abort", overTCP, r, mods)
			}
			for _, h := range f.held {
				if h.buf != nil {
					t.Errorf("fsdp tcp=%v rank %d: the gather of module %d survived the abort", overTCP, r, h.mod)
				}
			}
		}
		if n := comm.SharedBufs(); n != 0 {
			t.Errorf("fsdp tcp=%v: %d buffers still shared after an abort with a kept gather", overTCP, n)
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
		if kept := keptChunks(tr.(*WeiPipe)); len(kept) != 0 {
			t.Errorf("rank %d: kept copies of chunks %v survived the abort", r, kept)
		}
	}
	if n := comm.SharedBufs(); n != 0 {
		t.Errorf("%d buffers still shared after a kernel fault", n)
	}
}

// keptChunks lists the chunks w keeps a belt copy of, ascending.
func keptChunks(w *WeiPipe) []int { return heldChunks(w.kept) }

// heldChunks lists the chunks whose per-chunk buffer is held.
func heldChunks(bufs [][]float32) []int {
	var out []int
	for c, buf := range bufs {
		if buf != nil {
			out = append(out, c)
		}
	}
	return out
}

// heldCrash fails every send of its rank from the first one it makes while
// holding reports that the rank's trainer holds weights across passes: a
// kept belt copy, or a kept FSDP gather. All three sends
// are intercepted: belt hops donate and relay.
type heldCrash struct {
	comm.Transport
	holding func() bool // called on the rank's goroutine, at each send
	fired   bool
}

func (h *heldCrash) crashed() bool {
	if !h.fired && h.holding() {
		h.fired = true
	}
	return h.fired
}

func (h *heldCrash) Send(dst int, tag comm.Tag, data []float32) error {
	if h.crashed() {
		return comm.ErrCrashed
	}
	return h.Transport.Send(dst, tag, data)
}

func (h *heldCrash) SendOwned(dst int, tag comm.Tag, payload []float32) error {
	if h.crashed() {
		comm.Release(payload)
		return comm.ErrCrashed
	}
	return h.Transport.SendOwned(dst, tag, payload)
}

func (h *heldCrash) Forward(dst int, tag comm.Tag, payload []float32) error {
	if h.crashed() {
		comm.Release(payload)
		return comm.ErrCrashed
	}
	return h.Transport.Forward(dst, tag, payload)
}

// The belt's producers checksum a payload as they write it only where the
// wire reads that checksum. On the wide benchmark shape (3.3M parameters,
// four ranks, eight microbatches of 8 tokens) WZB2 over f32 TCP seals each
// owner's master once an iteration and every folded gradient hop, with and
// without the Integrity trailer, and the checksum table that holds them
// never evicts; in process, and over a bf16 belt, nothing is sealed. Every run lands on
// the same bits. The whole package runs under SetBufPoison, so every
// Forward of a sealed payload also checks that nothing wrote it after its
// seal, its trailer included.
func TestWideBeltCRCTableNeverEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("wide shape")
	}
	cfg := model.Config{Vocab: 256, Hidden: 256, Layers: 4, Heads: 4, MaxSeq: 8, Seed: 5}
	const p, iters, n = 4, 3, 8
	all := make([][]data.Batch, iters)
	for i := range all {
		all[i] = data.Microbatches(uint64(40+i), n, 1, cfg.Vocab, cfg.MaxSeq)
	}
	batches := func(i int) []data.Batch { return all[i] }
	sealed0, _, evicted0 := comm.CRCTableStats()
	wantLoss, wantW := runTCP(t, StrategyWZB2, p, cfg, eqOpts(), iters, batches, nil)
	sealed, peak, evicted := comm.CRCTableStats()
	if sealed == sealed0 {
		t.Error("WZB2 over f32 TCP sealed no payload as it wrote it")
	}
	if evicted != evicted0 {
		t.Errorf("the checksum table evicted %d entries (peak occupancy %d)", evicted-evicted0, peak)
	}
	t.Logf("%d payloads sealed, checksum table peak %d", sealed-sealed0, peak)
	same := func(what string, loss []float64, w []float32) {
		t.Helper()
		for i := range wantLoss {
			if math.Float64bits(loss[i]) != math.Float64bits(wantLoss[i]) {
				t.Fatalf("iter %d: %s loss %v, TCP %v", i, what, loss[i], wantLoss[i])
			}
		}
		if !slices.EqualFunc(w, wantW, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
			t.Errorf("%s weights differ from TCP's", what)
		}
	}

	opts := eqOpts()
	opts.Integrity = true
	loss, w := runTCP(t, StrategyWZB2, p, cfg, opts, iters, batches, nil)
	same("Integrity", loss, w)
	sealed, _, evicted = comm.CRCTableStats()
	if evicted != evicted0 {
		t.Errorf("with Integrity, the checksum table evicted %d entries", evicted-evicted0)
	}

	res, err := RunCluster(StrategyWZB2, p, cfg, eqOpts(), iters, batches)
	if err != nil {
		t.Fatal(err)
	}
	same("in-process", res.Losses, res.Weights)
	runTCP(t, StrategyWZB2, p, cfg, eqOpts(), iters, batches, comm.BeltBF16)
	if now, _, _ := comm.CRCTableStats(); now != sealed {
		t.Errorf("in process and over a bf16 belt, %d payloads were sealed; want none", now-sealed)
	}
}
