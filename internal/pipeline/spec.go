package pipeline

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
)

// RunSpec is one training run's whole configuration, and data only: it
// round-trips through JSON, which is how the launch supervisor hands it to
// every worker process. RunResilient, RunRank, the launch supervisor and
// worker, the replay oracle and both training CLIs take it (Bind declares
// its flags); the callbacks a run needs live beside it in RunHooks.
type RunSpec struct {
	Strategy Strategy
	Model    model.Config
	// Options configures every trainer; its Trace and BitFlip are
	// process-local and do not serialise.
	Options Options
	// World is the initial number of ranks; Spares is the standby budget
	// ElasticSpare may admit (under weipipe-launch, the hot-spare processes
	// spawned beside the world).
	World, Spares int
	// Iters iterations of MicroBatches microbatches, each of MicroBatchSize
	// sequences; iteration i draws its batch from BatchSeed+i (Batches).
	Iters, MicroBatches, MicroBatchSize int
	BatchSeed                           uint64
	// CheckpointEvery takes a coordinated full-state checkpoint after every
	// n-th completed iteration and after the final one (0 = never). Rank 0
	// writes it to CheckpointPath, rotating CheckpointKeep files (path,
	// path.1, …). An existing file at CheckpointPath seeds an in-process
	// run (RunResilient): a full-state one resumes at its step, a
	// weight-only one seeds the weights on a fresh optimizer.
	CheckpointEvery int
	CheckpointPath  string
	CheckpointKeep  int
	// Warmup, when positive, runs the learning rate through a linear
	// warm-up over Warmup iterations and a cosine decay to a tenth of
	// Options.Adam.LR at Iters (LR); 0 keeps it constant.
	Warmup int
	// MaxRestarts bounds the repairs and restarts after rank failures; 0
	// fails the run on the first one.
	MaxRestarts int
	// Elastic selects how dead ranks are handled (see ElasticPolicy). Any
	// policy but ElasticNone turns the repair ladder and buddy replication
	// on.
	Elastic ElasticPolicy
	// TCP runs the ranks over a loopback TCP mesh (LoopbackTCP) instead of
	// the in-process fabric; weipipe-launch's processes always are.
	TCP bool
	// Deadlines is the single timeout budget threaded through transport,
	// detector and protocol layers on every rank.
	Deadlines comm.Deadlines
	// Chaos, when set, injects frame-level faults under the TCP reliability
	// layer on every link (TCPOptions); a zero Seed draws the schedule from
	// Model.Seed.
	Chaos *comm.ChaosConfig
}

// RunHooks holds what a run needs besides its data: the callbacks, the
// transport factory and the state it starts from. Every field is optional.
type RunHooks struct {
	// Batches replaces RunSpec.Batches as the data source — for tests that
	// inject NaN or corrupt batches.
	Batches func(iter int) []data.Batch
	// Transports builds one endpoint per rank for each RunResilient attempt
	// (attempt 0 is the initial bring-up; a repair changes size). It may
	// wrap what it builds, e.g. to inject crashes. Nil is the fabric TCP
	// picks, carrying Options.Trace.
	Transports func(attempt, size int) ([]comm.Transport, error)
	// OnIteration is called at each completed iteration barrier (by rank 0
	// alone under RunResilient).
	OnIteration func(iter int, loss float64)
	// OnRepair is called after each elastic repair RunResilient performs.
	OnRepair func(RepairEvent)
	// Watchdog, when set, runs RunResilient's straggler watchdog over
	// per-rank progress beacons.
	Watchdog *WatchdogConfig
	// Snapshot seeds the run: RunResilient's first attempt, or one rank of
	// RunRank (survivors carry their harvested state here between
	// incarnations; spares receive it via the SeedFrom broadcast). A
	// full-state snapshot resumes at its Step; a weight-only one seeds the
	// weights alone, and training starts on a fresh optimizer.
	Snapshot *checkpoint.Snapshot
}

// Batches is the default data source every rank and the replay oracle
// share: iteration i draws from BatchSeed+i, so the data is a pure function
// of the spec and the global iteration number.
func (s RunSpec) Batches() func(iter int) []data.Batch {
	return func(i int) []data.Batch {
		return data.Microbatches(s.BatchSeed+uint64(i), s.MicroBatches, s.MicroBatchSize, s.Model.Vocab, s.Model.MaxSeq)
	}
}

// LR is the learning rate of iteration iter: Options.Adam.LR, through the
// warm-up and cosine schedule when Warmup is set. It depends on the
// iteration alone, so iterations replayed after a restart see the same one.
func (s RunSpec) LR(iter int) float64 {
	base := s.Options.Adam.LR
	if s.Warmup <= 0 {
		return base
	}
	return optim.WarmupCosine{Base: base, Floor: base / 10, Warmup: s.Warmup, Total: s.Iters}.LR(iter)
}

// TCPOptions is a TCP endpoint's dial options for incarnation epoch: the
// spec's deadlines and chaos. The caller adds a codec and a tracer.
func (s RunSpec) TCPOptions(epoch uint32) comm.TCPOptions {
	opts := comm.TCPOptions{Epoch: epoch, Deadlines: s.Deadlines}
	if s.Chaos != nil {
		c := *s.Chaos
		if c.Seed == 0 {
			c.Seed = s.Model.Seed
		}
		opts.Chaos = &c
	}
	return opts
}

// LoopbackTCP is a RunHooks.Transports factory: per attempt a TCP mesh on
// loopback, each endpoint dialled with TCPOptions(attempt), sending under
// codec (nil = f32) and tracing into Options.Trace.
func (s RunSpec) LoopbackTCP(codec comm.CodecFunc) func(attempt, size int) ([]comm.Transport, error) {
	return func(attempt, size int) ([]comm.Transport, error) {
		addrs, err := comm.LoopbackAddrs(size)
		if err != nil {
			return nil, err
		}
		ts := make([]comm.Transport, size)
		errs := make([]error, size)
		var wg sync.WaitGroup
		for r := range ts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := s.TCPOptions(uint32(attempt))
				opts.Codec, opts.Trace = codec, s.Options.Trace.Rank(r)
				t, err := comm.DialTCPOpts(r, addrs, opts)
				if err == nil {
					ts[r] = t
				}
				errs[r] = err
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			for _, t := range ts {
				if t != nil {
					t.Close()
				}
			}
			return nil, err
		}
		return ts, nil
	}
}

// Validate is the one place a run configuration is rejected: the CLIs, the
// launch supervisor and RunResilient all call it.
func (s RunSpec) Validate() error {
	var errs []error
	check := func(bad bool, format string, args ...any) {
		if bad {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(!slices.Contains(append(Strategies(), StrategySerial, StrategyWeiPipeDP), s.Strategy),
		"unknown strategy %q", s.Strategy)
	check(s.World < 1, "world size %d, need at least 1 rank", s.World)
	check(s.Iters < 0 || s.Spares < 0 || s.Warmup < 0 || s.MaxRestarts < 0 || s.CheckpointEvery < 0,
		"negative iterations, spares, warm-up, restarts or checkpoint interval")
	check(s.Spares > 0 && s.Elastic != ElasticSpare,
		"%d spares need the spare elastic policy, not %s", s.Spares, s.Elastic)
	check(s.CheckpointKeep > 1 && s.CheckpointEvery == 0,
		"keeping %d checkpoints needs a checkpoint interval", s.CheckpointKeep)
	check(s.Chaos != nil && !s.TCP, "chaos injects faults under the TCP reliability layer; it requires -tcp")
	if c := s.Chaos; c != nil {
		for _, p := range []float64{c.Drop, c.Dup, c.Reorder, c.Corrupt, c.DelayProb} {
			check(p < 0 || p > 1, "chaos probability %v outside [0, 1]", p)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("pipeline: invalid run: %w", err)
	}
	return nil
}

// Bind declares the run's flags on fs, the one flag set weipipe-train and
// weipipe-launch share. Each default is s's current value, so a CLI sets
// its own defaults in s before the call. -backend selects the tensor
// kernels when parsed (tensor.SetBackend).
func (s *RunSpec) Bind(fs *flag.FlagSet) {
	fs.StringVar((*string)(&s.Strategy), "strategy", string(s.Strategy), "training strategy: serial dp fsdp gpipe 1f1b zb1 zb2 weipipe-naive weipipe-interleave wzb1 wzb2 wzb2g weipipe-dp")
	fs.Func("backend", "tensor kernel backend: auto (default; the fastest this CPU supports), avx512 or avx2 (SIMD, the same bits on 16- or 8-lane GEMM panels; FMA-reassociated matmul, attention, SiLU and the head softmax), scalar (the bit-exact reference); weipipe-launch pins every worker and the -verify replay to it", tensor.SetBackend)
	fs.IntVar(&s.World, "p", s.World, "workers (ranks)")
	fs.IntVar(&s.Model.Vocab, "vocab", s.Model.Vocab, "vocabulary size")
	fs.IntVar(&s.Model.Hidden, "hidden", s.Model.Hidden, "hidden size")
	fs.IntVar(&s.Model.Layers, "layers", s.Model.Layers, "transformer layers")
	fs.IntVar(&s.Model.Heads, "heads", s.Model.Heads, "attention heads")
	fs.IntVar(&s.Model.MaxSeq, "seq", s.Model.MaxSeq, "sequence length")
	fs.IntVar(&s.MicroBatchSize, "g", s.MicroBatchSize, "sequences per microbatch")
	fs.IntVar(&s.MicroBatches, "n", s.MicroBatches, "microbatches per iteration (WeiPipe: a multiple of every world size the run takes)")
	fs.IntVar(&s.Iters, "iters", s.Iters, "training iterations")
	fs.Float64Var(&s.Options.Adam.LR, "lr", s.Options.Adam.LR, "peak learning rate")
	fs.IntVar(&s.Warmup, "warmup", s.Warmup, "LR warm-up iterations, then cosine decay to lr/10 (0 keeps lr constant)")
	fs.Float64Var(&s.Options.ClipNorm, "clip", s.Options.ClipNorm, "global gradient-norm clip (0 disables)")
	fs.Uint64Var(&s.Model.Seed, "seed", s.Model.Seed, "model, data, chaos and bit-flip seed")
	fs.BoolVar(&s.Options.Recompute, "recompute", s.Options.Recompute, "activation checkpointing")
	fs.IntVar(&s.Options.GroupSize, "group-size", s.Options.GroupSize, "ranks per topology group: for -strategy wzb2g, the grouped belt's groups — weight chunks cross a group boundary once per iteration and recirculate on the intra-group fabric (0 = topology-friendly default; sizes that do not divide -p fall back to the flat belt); for -strategy weipipe-dp, the WeiPipe ring size, one data-parallel replica per ring (0 or a size that does not divide -p = one ring of -p); also arms the per-link-tier byte meters -stats shows for any strategy")
	fs.BoolVar(&s.Options.Guard, "guard", s.Options.Guard, fmt.Sprintf("skip optimizer steps whose global gradient Σg² is non-finite or spikes (more than %d robust σ above the median of the last %d accepted norms); -stats reports the counts", optim.SpikeThreshold, optim.SpikeWindow))
	fs.BoolVar(&s.Options.Integrity, "integrity", s.Options.Integrity, "end-to-end silent-data-corruption defense: CRC-sealed belt chunks verified at every consumption point plus resident weight/moment guards; detections become typed failures the recovery machinery repairs")
	fs.StringVar(&s.CheckpointPath, "checkpoint", s.CheckpointPath, "checkpoint path: with -ckpt-every, the rotating full-state checkpoint and the restart point after a failure; weipipe-train also starts from a file already there (full state: resume; weights only: a fresh optimizer at iteration 0) and, without -ckpt-every, writes the final weights there")
	fs.IntVar(&s.CheckpointEvery, "ckpt-every", s.CheckpointEvery, "take a coordinated full-state checkpoint every n iterations (0 = never)")
	fs.IntVar(&s.CheckpointKeep, "ckpt-keep", s.CheckpointKeep, "rotate on-disk checkpoints, retaining the last k (needs -ckpt-every)")
	fs.IntVar(&s.MaxRestarts, "max-restarts", s.MaxRestarts, "repair or restart up to n times after rank failures (0 = fail on the first)")
	fs.TextVar(&s.Elastic, "elastic", s.Elastic, "repair policy on rank failure: none (checkpoint restart), shrink (re-shard across survivors from buddy replicas), spare (admit standby spares, then shrink)")
	fs.IntVar(&s.Spares, "spares", s.Spares, "standby ranks for -elastic spare")
	fs.Func("chaos", "per-frame fault probability on every TCP link: drop, duplicate, reorder and delay (and corrupt at half rate), masked by the reliability layer (weipipe-train: with -tcp)", func(v string) error {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		s.Chaos = nil
		if p > 0 {
			s.Chaos = &comm.ChaosConfig{Drop: p, Dup: p, Reorder: p, Corrupt: p / 2, DelayProb: p, MaxDelay: time.Millisecond}
		}
		return nil
	})
}
