// weipipe-launch is the cross-process elastic training supervisor: it
// spawns one OS process per rank (plus optional hot spares), trains a
// Llama-style model with any -strategy over a real TCP mesh, and survives
// rank failures — SIGKILL, stalls, network partitions — by re-admitting
// spares, shrinking the world (WeiPipe strategies, which keep buddy
// replicas), or restarting from the last coordinated checkpoint, each
// repair fenced by a fresh epoch.
//
// With -faults it doubles as the chaos soak driver: a seeded fault schedule
// is executed against the cluster and, with -verify, the final weights are
// checked bit-identical to a fault-free in-process replay of the same
// incarnation history.
//
// Examples:
//
//	weipipe-launch -p 4 -iters 20                          # plain 4-process wzb2 run
//	weipipe-launch -p 4 -spares 1 -chaos 0.01 \
//	    -faults 3 -seed 7 -verify                          # seeded chaos soak
//	weipipe-launch -strategy 1f1b -p 4 -faults 1 -verify \
//	    -checkpoint /tmp/m.wpck -ckpt-every 1              # checkpoint restart
//
// The run's flags are weipipe-train's (RunSpec.Bind).
package main

import (
	"flag"
	"fmt"
	"os"

	"weipipe/internal/launch"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/pipeline"
	"weipipe/internal/tensor"
)

func main() {
	// A process spawned by a supervisor must divert before flag parsing:
	// its argv is the parent's, not a worker command line.
	if launch.IsWorker() {
		os.Exit(launch.WorkerMain())
	}

	spec := pipeline.RunSpec{
		Strategy: pipeline.StrategyWZB2,
		Model:    model.Config{Vocab: 256, Hidden: 64, Layers: 4, Heads: 4, MaxSeq: 32, Seed: 42},
		Options:  pipeline.Options{Adam: optim.DefaultAdamW(1e-3)},
		World:    4, Iters: 10, MicroBatches: 12, MicroBatchSize: 2, CheckpointKeep: 1,
		MaxRestarts: 10, Elastic: pipeline.ElasticSpare, TCP: true,
	}
	spec.Bind(flag.CommandLine)
	faults := flag.Int("faults", 0, "number of seeded process-level faults to schedule")
	verify := flag.Bool("verify", false, "replay the run in-process and require bit-identical weights")
	flag.Parse()
	spec.BatchSeed = spec.Model.Seed * 2654435761
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "weipipe-launch: "+format+"\n", args...)
		os.Exit(1)
	}
	if err := spec.Validate(); err != nil {
		fail("%v", err)
	}
	fmt.Printf("kernel backend: %s\n", tensor.BackendName())

	o := launch.Options{Spec: spec, Log: os.Stderr}
	if *faults > 0 {
		o.Schedule = launch.GenSchedule(spec.Model.Seed, spec.World, spec.Iters, *faults)
	}
	rep, err := launch.RunSupervisor(o)
	if err != nil {
		fail("%v", err)
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
			fail("oracle replay: %v", err)
		}
		if oracle := fmt.Sprintf("%016x", pipeline.HashWeights(w)); oracle != rep.WeightsHash {
			fail("DIVERGED: cluster %s vs oracle %s", rep.WeightsHash, oracle)
		}
		fmt.Println("verified: bit-identical to fault-free replay")
	}
}
