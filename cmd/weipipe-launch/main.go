// weipipe-launch is the cross-process elastic training supervisor: it
// spawns one OS process per rank (plus optional hot spares), trains a
// Llama-style model with WZB2 weight-pipeline parallelism over a real TCP
// mesh, and survives rank failures — SIGKILL, stalls, network partitions —
// by re-admitting spares, shrinking the world, or restarting from the last
// coordinated checkpoint, each repair fenced by a fresh epoch.
//
// With -schedule or -faults it doubles as the chaos soak driver: a seeded
// fault schedule is executed against the cluster and the final weights are
// verified bit-identical to a fault-free in-process replay of the same
// incarnation history.
//
// Examples:
//
//	weipipe-launch -ranks 4 -iters 20                      # plain 4-process run
//	weipipe-launch -ranks 4 -spares 1 -chaos 0.01 \
//	    -faults 3 -seed 7 -verify                          # seeded chaos soak
//	weipipe-launch -ranks 4 -checkpoint /tmp/m.wpck \
//	    -ckpt-every 5                                      # with disk fallback
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/launch"
	"weipipe/internal/pipeline"
	"weipipe/internal/tensor"
)

func main() {
	// A process spawned by a supervisor must divert before flag parsing:
	// its argv is the parent's, not a worker command line.
	if launch.IsWorker() {
		os.Exit(launch.WorkerMain())
	}

	ranks := flag.Int("ranks", 4, "initial world size (processes)")
	spares := flag.Int("spares", 0, "hot-spare processes beyond -ranks")
	iters := flag.Int("iters", 10, "training iterations")
	n := flag.Int("n", 12, "microbatches per iteration (must divide every world size)")
	g := flag.Int("g", 2, "sequences per microbatch")
	vocab := flag.Int("vocab", 256, "vocabulary size")
	hidden := flag.Int("hidden", 64, "hidden dimension")
	layers := flag.Int("layers", 4, "transformer layers")
	heads := flag.Int("heads", 4, "attention heads")
	seq := flag.Int("seq", 32, "sequence length")
	seed := flag.Uint64("seed", 42, "model / schedule seed")
	lr := flag.Float64("lr", 1e-3, "AdamW learning rate")
	ckpt := flag.String("checkpoint", "", "coordinated checkpoint path (enables restart fallback)")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint every k iterations (0 = off)")
	chaos := flag.Float64("chaos", 0, "frame drop/dup/reorder probability on every link")
	faults := flag.Int("faults", 0, "number of seeded process-level faults to schedule")
	verify := flag.Bool("verify", false, "replay the run in-process and require bit-identical weights")
	epochTimeout := flag.Duration("epoch-timeout", 2*time.Minute, "deadline for one incarnation to resolve")
	backend := flag.String("backend", "", "tensor kernel backend, for every worker and the -verify replay: scalar, avx2, avx512 (avx2's bits on 16-lane GEMM panels), auto (default: auto, the fastest this CPU supports)")
	flag.Parse()

	if *backend != "" {
		if err := tensor.SetBackend(*backend); err != nil {
			fmt.Fprintf(os.Stderr, "weipipe-launch: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("kernel backend: %s\n", tensor.BackendName())

	spec := launch.TrainSpec{
		Vocab: *vocab, Hidden: *hidden, Layers: *layers, Heads: *heads,
		MaxSeq: *seq, ModelSeed: *seed, LR: *lr, Eps: 1e-8,
		Iters: *iters, MicroBatches: *n, MicroBatchSize: *g,
		BatchSeed:       *seed * 2654435761,
		CheckpointEvery: *ckptEvery, CheckpointPath: *ckpt,
	}
	if *chaos > 0 {
		spec.Chaos = &comm.ChaosConfig{
			Seed: *seed, Drop: *chaos, Dup: *chaos, Reorder: *chaos,
		}
	}
	o := launch.Options{
		Ranks: *ranks, Spares: *spares, Spec: spec,
		Log: os.Stderr, EpochTimeout: *epochTimeout,
	}
	if *faults > 0 {
		o.Schedule = launch.GenSchedule(*seed, *ranks, *iters, *faults)
	}

	rep, err := launch.RunSupervisor(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "weipipe-launch: %v\n", err)
		os.Exit(1)
	}
	for _, ev := range rep.History {
		fmt.Printf("epoch %d: world=%d start=%d policy=%s dead=%v\n",
			ev.Epoch, ev.World, ev.StartIter, ev.Policy, ev.Dead)
	}
	final := rep.Losses[len(rep.Losses)-1]
	fmt.Printf("done: %d incarnations, final loss %.6f, weights %s\n",
		len(rep.History), final, rep.WeightsHash)

	if *verify {
		_, w, err := launch.ReplayOracle(spec, rep.History)
		if err != nil {
			fmt.Fprintf(os.Stderr, "weipipe-launch: oracle replay: %v\n", err)
			os.Exit(1)
		}
		oracle := fmt.Sprintf("%016x", pipeline.HashWeights(w))
		if oracle != rep.WeightsHash {
			fmt.Fprintf(os.Stderr, "weipipe-launch: DIVERGED: cluster %s vs oracle %s\n",
				rep.WeightsHash, oracle)
			os.Exit(1)
		}
		fmt.Println("verified: bit-identical to fault-free replay")
	}
}
