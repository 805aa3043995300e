package pipeline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// TestSoakBitFlipSchedules is the silent-data-corruption soak: WEIPIPE_SDC=N
// replays N deterministic bit-flip schedules — flips in resident weights,
// optimizer moments, belt staging buffers and (on odd schedules) matmul
// outputs — against WZB2 over real TCP with frame-level chaos, recovering
// via checkpoint restart. Every schedule must end with:
//
//   - every scheduled flip actually fired (the schedule was exercised),
//   - at least one detection-triggered restart (the defense engaged),
//   - losses and final weights bit-identical to the fault-free oracle —
//     i.e. zero corruptions silently absorbed into training.
//
// WEIPIPE_SDC_OUT, when set, receives one JSON report and one Chrome trace
// per schedule (the CI artifact uploaded on failure).
func TestSoakBitFlipSchedules(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("WEIPIPE_SDC"))
	if n <= 0 {
		t.Skip("set WEIPIPE_SDC=<n> to run the bit-flip soak")
	}
	outDir := os.Getenv("WEIPIPE_SDC_OUT")
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	const p, iters, nb = 2, 8, 4
	baseG := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		seed := uint64(0x5DC0 + 104729*i)
		t.Run(fmt.Sprintf("seed_%#x", seed), func(t *testing.T) {
			sites := []FlipSite{FlipWeights, FlipMomentM, FlipMomentV, FlipBeltWeight, FlipBeltGrad}
			kernel := i%2 == 1
			if kernel {
				sites = append(sites, FlipKernel)
			}
			events := GenBitFlips(seed, p, iters, 3, sites)
			inj := NewBitFlipInjector(events)

			opts := integrityOpts()
			var codec comm.CodecFunc
			if i%3 == 0 {
				codec = comm.BeltBF16 // bf16 belts × checksum coverage
			}
			ref := runCodec(t, StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, nb), codec)

			if kernel {
				tensor.EnableABFT()
				tensor.SetABFTFault(inj.KernelHook())
				defer func() {
					tensor.SetABFTFault(nil)
					tensor.DisableABFT()
				}()
			}
			faulted := opts
			faulted.BitFlip = inj
			set := trace.NewSet(p, 1<<13)
			faulted.Trace = set

			tcpOpts := comm.TCPOptions{
				Deadlines: comm.Deadlines{Dial: 10 * time.Second, Heartbeat: 20 * time.Millisecond, PeerDead: 2 * time.Second, Retransmit: 40 * time.Millisecond},
				// Match the oracle fabric's belt width so trajectories are
				// comparable.
				Codec: codec,
				Chaos: &comm.ChaosConfig{
					Seed: seed, Drop: 0.02, Dup: 0.02, Reorder: 0.02, Corrupt: 0.01,
					DelayProb: 0.02, MaxDelay: 1 * time.Millisecond,
				},
			}
			var attempts atomic.Int64
			factory := chaosTCPFactory(tcpOpts)
			counting := func(attempt, size int) ([]comm.Transport, error) {
				if int64(attempt) > attempts.Load() {
					attempts.Store(int64(attempt))
				}
				return factory(attempt, size)
			}
			spec := eqSpec(StrategyWZB2, p, iters, nb)
			spec.Options = faulted
			spec.CheckpointEvery = 2
			spec.CheckpointPath = filepath.Join(t.TempDir(), "sdc.wpck")
			spec.MaxRestarts = len(events) + 3
			res, err := RunResilient(spec, RunHooks{Transports: counting})

			if outDir != "" {
				writeSDCReport(t, outDir, seed, inj, events, attempts.Load(), set, err)
			}
			if err != nil {
				t.Fatalf("schedule %#x: %v", seed, err)
			}
			if got := inj.Fired(); got != len(events) {
				t.Fatalf("schedule %#x: %d/%d flips fired (pending: %+v)", seed, got, len(events), inj.Pending())
			}
			if attempts.Load() == 0 {
				t.Fatalf("schedule %#x: flips fired but no restart happened — a detection was swallowed", seed)
			}
			bitIdentical(t, fmt.Sprintf("schedule %#x", seed), res.Losses, ref.Losses, res.Weights, ref.Weights)
			checks, _ := res.TotalComm().TotalIntegrityChecks()
			if checks == 0 {
				t.Fatalf("schedule %#x: final attempt recorded no integrity checks", seed)
			}
		})
	}
	waitPipelineGoroutines(t, baseG)
}

// writeSDCReport persists one schedule's artifacts: a JSON report of the
// schedule, fired flips and restart count, plus the Chrome trace carrying
// the integrity/repair instants.
func writeSDCReport(t *testing.T, dir string, seed uint64, inj *BitFlipInjector,
	events []BitFlipEvent, restarts int64, set *trace.Set, runErr error) {
	t.Helper()
	report := struct {
		Seed     string         `json:"seed"`
		Events   []BitFlipEvent `json:"events"`
		Fired    []FiredFlip    `json:"fired"`
		Restarts int64          `json:"restarts"`
		Err      string         `json:"err,omitempty"`
	}{Seed: fmt.Sprintf("%#x", seed), Events: events, Fired: inj.Log(), Restarts: restarts}
	if runErr != nil {
		report.Err = runErr.Error()
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Errorf("marshal report: %v", err)
		return
	}
	base := filepath.Join(dir, fmt.Sprintf("sdc-%#x", seed))
	if err := os.WriteFile(base+".json", blob, 0o644); err != nil {
		t.Errorf("write report: %v", err)
	}
	if tb, err := set.ChromeTrace(nil); err == nil {
		if err := os.WriteFile(base+".trace.json", tb, 0o644); err != nil {
			t.Errorf("write trace: %v", err)
		}
	}
}
