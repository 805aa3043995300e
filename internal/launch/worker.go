package launch

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/pipeline"
	"weipipe/internal/tensor"
)

// IsWorker reports whether this process was spawned by a supervisor and
// must run RunWorker instead of its normal main. Check it before flag
// parsing — re-exec'ed binaries (weipipe-launch, test binaries) carry
// their parent's argv, which is not meant for the worker.
func IsWorker() bool { return os.Getenv(envWorker) == "1" }

// WorkerMain is the entry point of a spawned worker process: dial the
// supervisor's control port, introduce ourselves, then serve rank
// assignments until told to exit. The returned code is the process exit
// status. The supervisor's tensor backend is adopted first, so the fleet
// and the replay oracle run the same kernels.
func WorkerMain() int {
	addr := os.Getenv(envSupAddr)
	id, _ := strconv.Atoi(os.Getenv(envWorkID))
	if name := os.Getenv(envBackend); name != "" {
		if err := tensor.SetBackend(name); err != nil {
			fmt.Fprintf(os.Stderr, "launch worker %d: %v\n", id, err)
			return 1
		}
	}
	if err := RunWorker(addr, id); err != nil {
		fmt.Fprintf(os.Stderr, "launch worker %d: %v\n", id, err)
		return 1
	}
	return 0
}

// worker is one process's view of its life under a supervisor.
type worker struct {
	id int
	c  *codec

	mu   sync.Mutex
	tr   *comm.TCPTransport // live data-mesh transport, for partition cmds
	snap *checkpoint.Snapshot
}

// RunWorker connects to the supervisor at addr and serves assignments.
func RunWorker(addr string, id int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dial supervisor: %w", err)
	}
	w := &worker{id: id, c: newCodec(conn)}
	defer w.c.close()
	if err := w.c.send(Msg{Type: "hello", ID: id, PID: os.Getpid(), Backend: tensor.BackendName()}); err != nil {
		return err
	}

	// The reader goroutine owns the control connection's receive side:
	// assignments queue for the main loop, partitions apply immediately to
	// the live transport (the whole point is hitting a rank mid-training),
	// exit terminates.
	assigns := make(chan Msg, 4)
	done := make(chan error, 1)
	go func() {
		for {
			m, err := w.c.recv()
			if err != nil {
				done <- nil // supervisor gone: nothing left to serve
				return
			}
			switch m.Type {
			case "assign":
				assigns <- m
			case "partition":
				w.partition(m.Peers, m.Dur)
			case "exit":
				done <- nil
				return
			}
		}
	}()

	for {
		select {
		case err := <-done:
			return err
		case m := <-assigns:
			if err := w.serve(m); err != nil {
				return err
			}
		}
	}
}

func (w *worker) partition(peers []int, d time.Duration) {
	w.mu.Lock()
	tr := w.tr
	w.mu.Unlock()
	if tr != nil {
		tr.Blackhole(peers, d)
	}
}

func (w *worker) setTransport(tr *comm.TCPTransport) {
	w.mu.Lock()
	w.tr = tr
	w.mu.Unlock()
}

// serve runs one incarnation and reports its outcome. Every error that
// can be reported as a result is; only control-channel failures (the
// supervisor is gone) escape.
func (w *worker) serve(m Msg) error {
	spec := m.Spec
	if spec == nil {
		return fmt.Errorf("assign without spec")
	}
	snap := w.snap
	if m.FromCkpt {
		loaded, err := checkpoint.Load(spec.CheckpointPath)
		if err != nil {
			return w.c.send(Msg{Type: "result", Epoch: m.Epoch, Aborted: true,
				Reason: "checkpoint: " + err.Error()})
		}
		snap = loaded
	}

	seedFrom := -1
	if m.SeedFrom != nil {
		seedFrom = *m.SeedFrom
	}
	a := pipeline.RankAssignment{
		Epoch: m.Epoch, Rank: m.Rank, World: m.World, Addrs: m.Addrs,
		StartIter: m.StartIter, SeedFrom: seedFrom, SeedTo: m.SeedTo,
	}
	dl := spec.Deadlines.WithDefaults()
	rc := pipeline.RankConfig{
		Strategy:        pipeline.StrategyWZB2,
		Cfg:             spec.config(),
		Opts:            spec.options(),
		Iters:           spec.Iters,
		BatchesFn:       spec.batches(),
		Deadlines:       dl,
		Chaos:           spec.Chaos,
		CheckpointEvery: spec.CheckpointEvery,
		CheckpointPath:  spec.CheckpointPath,
		Snapshot:        snap,
		OnIteration: func(iter int, loss float64) {
			w.c.send(Msg{Type: "progress", Epoch: m.Epoch, Iter: iter})
		},
		Beacon: func(state string, iter int) {
			w.c.send(Msg{Type: "progress", Epoch: m.Epoch, Iter: iter, State: state})
		},
		Transport: func(a pipeline.RankAssignment) (comm.Transport, error) {
			opts := dl.TCPOptions()
			opts.Epoch = a.Epoch
			opts.Chaos = spec.Chaos
			tr, err := comm.DialTCPOpts(a.Rank, a.Addrs, opts)
			if err == nil {
				w.setTransport(tr)
			}
			return tr, err
		},
	}

	out, err := pipeline.RunRank(a, rc)
	w.setTransport(nil)
	if err != nil {
		w.snap = nil
		return w.c.send(Msg{Type: "result", Epoch: m.Epoch, Aborted: true,
			Reason: "rank: " + err.Error()})
	}

	res := Msg{Type: "result", Epoch: m.Epoch, Rank: m.Rank,
		Done: out.Done, Aborted: out.Aborted, Reason: out.Reason, Cut: out.Iter}
	switch {
	case out.Done:
		w.snap = nil
		res.WHash = fmt.Sprintf("%016x", out.WeightsHash)
		res.Losses = out.Losses
	case out.Snapshot != nil:
		// A survivor: hold the harvested state for the next incarnation and
		// report its fingerprint so the supervisor can cross-check every
		// survivor harvested the identical snapshot.
		w.snap = out.Snapshot
		res.Dead = out.Membership.Dead
		res.SnapHash = fmt.Sprintf("%016x", pipeline.HashWeights(out.Snapshot.Weights))
	default:
		// Evicted, quorum lost, or harvest failed: this process keeps no
		// usable state and retires to standby (re-seedable as a spare).
		w.snap = nil
	}
	return w.c.send(res)
}

// batches is the per-iteration microbatch source every rank and the
// replay oracle share: iteration i draws from BatchSeed+i, so data is a
// pure function of the spec and the global iteration number — no rank or
// incarnation leaks into it.
func (s *TrainSpec) batches() func(int) []data.Batch {
	return func(i int) []data.Batch {
		return data.Microbatches(s.BatchSeed+uint64(i), s.MicroBatches, s.MicroBatchSize, s.Vocab, s.MaxSeq)
	}
}

// config materialises the model configuration (shared with the oracle).
func (s *TrainSpec) config() model.Config {
	return model.Config{
		Vocab: s.Vocab, Hidden: s.Hidden, Layers: s.Layers,
		Heads: s.Heads, MaxSeq: s.MaxSeq, Seed: s.ModelSeed,
	}
}

// options materialises the trainer options (shared with the oracle).
func (s *TrainSpec) options() pipeline.Options {
	adam := optim.DefaultAdamW(s.LR)
	adam.Eps = s.Eps
	return pipeline.Options{Adam: adam}
}
