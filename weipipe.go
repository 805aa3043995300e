// Package weipipe is a from-scratch Go reproduction of "WeiPipe: Weight
// Pipeline Parallelism for Communication-Effective Long-Context Large Model
// Training" (PPoPP 2025).
//
// It bundles two cooperating systems behind one API:
//
//   - A functional distributed-training runtime: goroutine (or TCP) ranks
//     train a real Llama-style transformer on CPU under WeiPipe-Naive,
//     WeiPipe-Interleave, WZB1, WZB2 and every baseline the paper compares
//     against (GPipe, 1F1B, ZB1, ZB2, FSDP/ZeRO-3, DP). All strategies are
//     verified to produce the serial reference's gradients.
//
//   - A deterministic performance simulator that models A800 GPUs on
//     NVLink/PCIe/Ethernet rings and regenerates every table and figure of
//     the paper's evaluation (see internal/bench and cmd/weipipe-bench).
//
// RunCluster/NewTrainer drive the first system, Simulate the second; the
// cmd/ tools and examples/ directory show both in use. Beyond the paper,
// the module also provides hybrid WeiPipe×DP rings (NewHybridTrainer, or
// the "weipipe-dp" strategy name), checkpointing and failure recovery.
package weipipe

import (
	"weipipe/internal/checkpoint"
	"weipipe/internal/cluster"
	"weipipe/internal/comm"
	"weipipe/internal/cost"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/pipeline"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
	"weipipe/internal/tensor"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Config describes a Llama-style model (vocab, hidden, layers, heads…).
	Config = model.Config
	// Model is a built transformer.
	Model = model.Model
	// Options configures training (optimizer, recomputation, clipping,
	// guards). The wire precision is the transport's: see
	// NewInprocClusterCodec and TCPOptions.Codec.
	Options = pipeline.Options
	// Strategy names a parallel training strategy.
	Strategy = pipeline.Strategy
	// Trainer runs training iterations for one rank.
	Trainer = pipeline.Trainer
	// Batch is one microbatch of token sequences and next-token targets.
	Batch = data.Batch
	// Workload parameterises the performance model (H, S, G, L, N, P).
	Workload = cost.Workload
	// Topology is a ring of workers with per-link bandwidth and latency.
	Topology = cluster.Topology
	// GPUSpec describes an accelerator for the performance model.
	GPUSpec = cluster.GPUSpec
	// Transport is the message fabric a rank communicates over.
	Transport = comm.Transport
	// ClusterResult is the outcome of RunCluster.
	ClusterResult = pipeline.ClusterResult
)

// The training strategies.
const (
	Serial            = pipeline.StrategySerial
	DP                = pipeline.StrategyDP
	FSDP              = pipeline.StrategyFSDP
	GPipe             = pipeline.StrategyGPipe
	OneFOneB          = pipeline.Strategy1F1B
	ZB1               = pipeline.StrategyZB1
	ZB2               = pipeline.StrategyZB2
	WeiPipeNaive      = pipeline.StrategyWeiPipeNaive
	WeiPipeInterleave = pipeline.StrategyWeiPipeInterleave
	WZB1              = pipeline.StrategyWZB1
	WZB2              = pipeline.StrategyWZB2
	// WZB2G is WZB2 with topology-aware grouped weight belts (intra-group
	// circulation + deduplicated inter-group shard exchange).
	WZB2G = pipeline.StrategyWZB2G
)

// Strategies lists every distributed strategy.
func Strategies() []Strategy { return pipeline.Strategies() }

// DefaultOptions returns training options with the paper's AdamW
// hyperparameters at the given learning rate.
func DefaultOptions(lr float64) Options {
	return Options{Adam: optim.DefaultAdamW(lr)}
}

// NewTrainer builds a trainer for one rank on transport t. Every rank must
// pass the same cfg (models are rebuilt from the seed, never broadcast).
func NewTrainer(s Strategy, t Transport, cfg Config, opts Options) (Trainer, error) {
	return pipeline.New(s, t, cfg, opts)
}

// NewInprocCluster returns p connected in-process transports (rank order).
func NewInprocCluster(p int) []Transport {
	return comm.NewCluster(p).Transports()
}

// CodecFunc selects the per-Tag wire codec for a transport fabric.
type CodecFunc = comm.CodecFunc

// BeltBF16 is the bf16 belt wire codec: weight and weight-gradient payloads
// travel as bf16 (half the belt bytes), everything else stays f32.
var BeltBF16 CodecFunc = comm.BeltBF16

// NewInprocClusterCodec is NewInprocCluster with a wire codec (nil = f32):
// the one place an in-process run's wire precision is chosen.
func NewInprocClusterCodec(p int, codec CodecFunc) []Transport {
	return comm.NewClusterCodec(p, codec).Transports()
}

// DialTCP joins a TCP mesh; addrs lists every rank's listen address.
func DialTCP(rank int, addrs []string) (Transport, error) {
	return comm.DialTCP(rank, addrs)
}

// LoopbackAddrs allocates n free loopback addresses for a local TCP mesh.
func LoopbackAddrs(n int) ([]string, error) { return comm.LoopbackAddrs(n) }

// Fault tolerance. The TCP transport detects peer failure by heartbeat,
// reconnects with bounded backoff, retransmits unacknowledged frames, and
// rejects corrupted ones by CRC; FaultTransport crashes or stalls a rank at
// a chosen send, for testing; RunResilient recovers a training run from
// coordinated checkpoints after a rank dies. See DESIGN.md §9.
type (
	// TCPOptions tunes the TCP transport's deadlines, heartbeats,
	// retransmission and (for tests) frame-level chaos injection.
	TCPOptions = comm.TCPOptions
	// ChaosConfig describes seed-deterministic frame-level fault injection
	// inside the TCP transport (masked by its reliability layer).
	ChaosConfig = comm.ChaosConfig
	// FaultConfig schedules an endpoint crash or stall at a send ordinal
	// (visible to the application — for failure-path tests).
	FaultConfig = comm.FaultConfig
	// FaultTransport wraps any Transport with a FaultConfig schedule; every
	// other operation passes through to the wrapped transport.
	FaultTransport = comm.FaultTransport
	// CommStats is a rank's communication meter, including per-peer fault
	// counters (retransmits, timeouts, reconnects, heartbeat misses…).
	CommStats = comm.Stats
	// PeerFaults is the per-peer fault counter block of CommStats.
	PeerFaults = comm.PeerFaults
	// TimeoutError reports a Recv deadline expiry (matches ErrTimeout).
	TimeoutError = comm.TimeoutError
	// PeerDeadError reports a heartbeat-detected peer failure (matches
	// ErrPeerDead).
	PeerDeadError = comm.PeerDeadError
	// CorruptionError reports a frame that failed validation (matches
	// ErrCorrupt).
	CorruptionError = comm.CorruptionError
	// RunSpec is one training run's whole configuration, data only
	// (strategy, model, options, world, batches, checkpoints, LR warm-up,
	// restart budget, elastic policy, deadlines, chaos); Bind declares its
	// flags and Validate rejects a bad one.
	RunSpec = pipeline.RunSpec
	// RunHooks holds a run's callbacks, its transport factory and the
	// snapshot it starts from.
	RunHooks = pipeline.RunHooks
	// ElasticPolicy selects how RunResilient reacts to dead ranks
	// (ElasticNone / ElasticShrink / ElasticSpare).
	ElasticPolicy = pipeline.ElasticPolicy
	// RepairEvent describes one elastic repair RunResilient performed.
	RepairEvent = pipeline.RepairEvent
	// WatchdogConfig tunes the straggler watchdog (sampling interval, stall
	// threshold, declare-dead behaviour).
	WatchdogConfig = pipeline.WatchdogConfig
	// StragglerReport describes one rank the watchdog flagged as stalled.
	StragglerReport = pipeline.StragglerReport
	// Deadlines is the single timeout budget threaded through the TCP
	// transport, failure detector, membership agreement and barrier layers
	// (Retransmit < Heartbeat < PeerDead < AgreeRound < Barrier).
	Deadlines = comm.Deadlines
)

// The elastic repair policies.
const (
	// ElasticNone restores from the last checkpoint at the same world size.
	ElasticNone = pipeline.ElasticNone
	// ElasticShrink re-shards across the survivors, rebuilding lost shards
	// from buddy replicas — no checkpoint read.
	ElasticShrink = pipeline.ElasticShrink
	// ElasticSpare admits standby spares to preserve the world size,
	// seeding replacements from buddy replicas.
	ElasticSpare = pipeline.ElasticSpare
)

// Sentinel errors for errors.Is against transport failures.
var (
	ErrTimeout  = comm.ErrTimeout
	ErrPeerDead = comm.ErrPeerDead
	ErrCorrupt  = comm.ErrCorrupt
	ErrCrashed  = comm.ErrCrashed
	ErrClosed   = comm.ErrClosed
	// ErrIntegrity matches detected silent-data-corruption (checksummed
	// belts, resident-state guards, ABFT kernel verification).
	ErrIntegrity = comm.ErrIntegrity
)

// Silent-data-corruption defense: checksummed weight belts and resident-state
// guards (Options.Integrity), ABFT matmul verification (EnableABFT), the
// step guard's windowed grad-norm spike detector (Options.Guard), per-section
// checkpoint digests (VerifyCheckpoint) and the seeded bit-flip chaos tier
// (GenBitFlips + Options.BitFlip). See DESIGN.md §15.
type (
	// IntegrityError is the typed detection report (matches ErrIntegrity):
	// which rank detected corruption, at which site, in which chunk.
	IntegrityError = comm.IntegrityError
	// IntegritySite names a detection point (belt, retire, weights,
	// moments, kernel…).
	IntegritySite = comm.IntegritySite
	// ABFTError reports a checksum-localized matmul fault (row/column).
	ABFTError = tensor.ABFTError
	// BitFlipEvent schedules one bit flip at a (rank, iteration, site).
	BitFlipEvent = pipeline.BitFlipEvent
	// BitFlipInjector applies a BitFlipEvent schedule (each event fires
	// once, surviving restarts).
	BitFlipInjector = pipeline.BitFlipInjector
	// FlipSite selects what a scheduled bit flip corrupts.
	FlipSite = pipeline.FlipSite
)

// The bit-flip injection sites.
const (
	FlipWeights    = pipeline.FlipWeights
	FlipMomentM    = pipeline.FlipMomentM
	FlipMomentV    = pipeline.FlipMomentV
	FlipBeltWeight = pipeline.FlipBeltWeight
	FlipBeltGrad   = pipeline.FlipBeltGrad
	FlipKernel     = pipeline.FlipKernel
)

// EnableABFT arms algorithm-based fault tolerance on the tensor backend:
// every matmul is verified against row/column checksums and a violation
// surfaces as a localized *ABFTError. Process-global; costs O(n²) extra
// work per O(n³) matmul.
func EnableABFT() { tensor.EnableABFT() }

// DisableABFT restores the unverified kernels.
func DisableABFT() { tensor.DisableABFT() }

// SetBackend selects the process-wide tensor kernel backend by name. The
// process starts on "auto": the fastest backend the build and CPU support
// ("avx512" on amd64 with AVX2+FMA and AVX-512F, else "avx2" with AVX2+FMA;
// the two compute the same bits), which is deterministic and keeps every
// strategy bit-identical to every other but reassociates some reductions.
// "scalar" pins the pure-Go bit-exactness reference — the oracle runs on
// different machines can be compared against. Unknown names return an error
// and leave the selection unchanged. See DESIGN.md §13.
func SetBackend(name string) error { return tensor.SetBackend(name) }

// BackendName returns the name of the active tensor kernel backend.
func BackendName() string { return tensor.BackendName() }

// GenBitFlips derives a deterministic bit-flip schedule from a seed: count
// events spread across ranks, the given sites and iterations [2, iters).
func GenBitFlips(seed uint64, ranks, iters, count int, sites []FlipSite) []BitFlipEvent {
	return pipeline.GenBitFlips(seed, ranks, iters, count, sites)
}

// NewBitFlipInjector builds the injector for a schedule (Options.BitFlip).
func NewBitFlipInjector(events []BitFlipEvent) *BitFlipInjector {
	return pipeline.NewBitFlipInjector(events)
}

// VerifyCheckpoint re-reads a checkpoint file, checking the whole-file CRC
// and the per-section digests. It returns the data section names and
// whether the file carried digests (older files verify vacuously).
func VerifyCheckpoint(path string) (sections []string, digested bool, err error) {
	return checkpoint.Verify(path)
}

// DialTCPOpts joins a TCP mesh with explicit fault-tolerance options.
func DialTCPOpts(rank int, addrs []string, opts TCPOptions) (Transport, error) {
	return comm.DialTCPOpts(rank, addrs, opts)
}

// NewFaultTransport wraps a transport with deterministic fault injection.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	return comm.NewFaultTransport(inner, cfg)
}

// RunResilient is the in-process supervisor RunCluster runs on: per
// attempt it builds the endpoints with hooks.Transports (elastic repair
// changes the requested size), runs one training loop per rank over them —
// the loop each weipipe-launch process runs — and recovers when a rank
// fails: either elastic repair at the failure barrier from buddy replicas —
// the survivors agree on the dead set and harvest a snapshot over their own
// transports, then shrink the ring or admit a spare, per spec.Elastic, with
// no checkpoint read — or restart from the last coordinated checkpoint. The
// recovered loss trajectory is bit-identical to an uninterrupted run.
func RunResilient(spec RunSpec, hooks RunHooks) (*ClusterResult, error) {
	return pipeline.RunResilient(spec, hooks)
}

// CaptureSnapshot takes a coordinated full-state checkpoint (weights,
// optimizer moments, data cursor) of quiescent trainers.
func CaptureSnapshot(trainers []Trainer, completedIters int) (*Snapshot, error) {
	return pipeline.CaptureSnapshot(trainers, completedIters)
}

// RestoreSnapshot loads a coordinated checkpoint into a fresh cluster so
// training resumes bit-identically.
func RestoreSnapshot(snap *Snapshot, trainers []Trainer) error {
	return pipeline.RestoreSnapshot(snap, trainers)
}

// RunCluster trains iters iterations of strategy s on p in-process ranks
// and returns losses plus the assembled final weights.
func RunCluster(s Strategy, p int, cfg Config, opts Options, iters int,
	batchesFn func(iter int) []Batch) (*ClusterResult, error) {
	return pipeline.RunCluster(s, p, cfg, opts, iters, batchesFn)
}

// Microbatches generates the n deterministic microbatches of one iteration.
func Microbatches(seed uint64, n, g, vocab, seq int) []Batch {
	return data.Microbatches(seed, n, g, vocab, seq)
}

// A800 returns the paper's GPU spec.
func A800() GPUSpec { return cluster.A800() }

// Topology presets (see internal/cluster for details).
var (
	NVLinkSingle      = cluster.NVLinkSingle
	NVLinkTwoClusters = cluster.NVLinkTwoClusters
	PCIeEthernet      = cluster.PCIeEthernet
	NVLinkEthernet    = cluster.NVLinkEthernet
)

// SimResult summarises one performance simulation.
type SimResult struct {
	// TokensPerSecPerGPU is the modelled training throughput.
	TokensPerSecPerGPU float64
	// IterationSeconds is the simulated iteration wall time.
	IterationSeconds float64
	// BubbleRatio is the compute-idle fraction.
	BubbleRatio float64
	// MemoryGB is the modelled peak per-worker memory.
	MemoryGB float64
	// OOM is set when the workload exceeds the GPU budget (other fields
	// except MemoryGB are zero).
	OOM bool
}

// Simulate runs the performance model for one strategy on one workload and
// topology using the paper's A800 GPUs.
func Simulate(s Strategy, w Workload, top Topology) (SimResult, error) {
	return SimulateScaled(s, w, top, 1)
}

// SimulateScaled is Simulate with a calibrated link-duration multiplier:
// linkScale expresses how much of the modelled link time the measured
// transport actually exposes to compute (cost.Calibration carries one fitted
// from a traced run). linkScale <= 0 or 1 reproduces Simulate.
func SimulateScaled(s Strategy, w Workload, top Topology, linkScale float64) (SimResult, error) {
	w = w.WithDefaults()
	gpu := cluster.A800()
	out := SimResult{MemoryGB: w.MemoryBytes(string(s)) / (1 << 30)}
	if !w.FitsMemory(string(s), gpu) {
		out.OOM = true
		return out, nil
	}
	tasks, err := schedule.Build(string(s), schedule.Spec{W: w, GPU: gpu, Top: top, LinkScale: linkScale})
	if err != nil {
		return out, err
	}
	res, err := sim.Run(tasks)
	if err != nil {
		return out, err
	}
	out.IterationSeconds = res.Makespan
	out.TokensPerSecPerGPU = w.Tokens() / (res.Makespan * float64(w.P))
	out.BubbleRatio = res.BubbleRatio()
	return out, nil
}

// BuildModel constructs a model from cfg (deterministic in cfg.Seed).
func BuildModel(cfg Config) *Model { return model.Build(cfg) }

// LoadWeights writes a flat parameter vector (e.g. ClusterResult.Weights)
// into a model built with the matching config.
func LoadWeights(m *Model, weights []float32) {
	m.SetChunk(0, len(m.Modules), weights)
}

// Snapshot is a serialisable training state (weights + named sections).
type Snapshot = checkpoint.Snapshot

// SnapshotModel captures a model's weights into a snapshot.
func SnapshotModel(m *Model) *Snapshot { return checkpoint.FromModel(m) }

// SaveCheckpoint writes a snapshot to path (atomic temp-file rename).
func SaveCheckpoint(path string, s *Snapshot) error { return checkpoint.Save(path, s) }

// LoadCheckpoint reads a snapshot from path, verifying its checksum.
func LoadCheckpoint(path string) (*Snapshot, error) { return checkpoint.Load(path) }

// NewHybridTrainer builds a 2-D WeiPipe×DP trainer: the world splits into
// rings of wpSize workers (data-parallel replicas); chunk owners all-reduce
// their accumulated gradients across replicas once per iteration. See
// pipeline.WeiPipeDP.
func NewHybridTrainer(t Transport, cfg Config, opts Options, wpSize int) (Trainer, error) {
	return pipeline.NewWeiPipeDP(t, cfg, opts, pipeline.WeiPipeInterleave, wpSize)
}
