package schedule

import (
	"fmt"
	"slices"
	"testing"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/order"
	"weipipe/internal/sim"
)

func runStrategy(t *testing.T, strategy string, w cost.Workload, top cluster.Topology) *sim.Result {
	t.Helper()
	spec := Spec{W: w, GPU: cluster.A800(), Top: top}
	tasks, err := Build(strategy, spec)
	if err != nil {
		t.Fatalf("%s build: %v", strategy, err)
	}
	res, err := sim.Run(tasks)
	if err != nil {
		t.Fatalf("%s run: %v", strategy, err)
	}
	return res
}

// throughput in tokens/second/GPU.
func tput(w cost.Workload, res *sim.Result) float64 {
	return w.Tokens() / (res.Makespan * float64(w.P))
}

func smallWorkload(p int) cost.Workload {
	return cost.Workload{H: 1024, S: 4096, G: 4, L: 2 * p, N: 4 * p, P: p, Recompute: true}.WithDefaults()
}

func TestAllStrategiesBuildAndRun(t *testing.T) {
	for _, p := range []int{2, 4} {
		w := smallWorkload(p)
		top := cluster.NVLinkSingle(p)
		for _, s := range Strategies() {
			wl := w
			if s == "zb1" || s == "zb2" {
				wl.Recompute = false
			}
			res := runStrategy(t, s, wl, top)
			if res.Makespan <= 0 {
				t.Errorf("%s p=%d: makespan %v", s, p, res.Makespan)
			}
			if br := res.BubbleRatio(); br < 0 || br >= 1 {
				t.Errorf("%s p=%d: bubble %v", s, p, br)
			}
		}
	}
}

func TestComputeLowerBound(t *testing.T) {
	// No schedule can beat the serial compute of its own critical path:
	// makespan ≥ per-worker compute (F+B+W for all its microbatch-stages).
	p := 4
	w := smallWorkload(p)
	top := cluster.NVLinkSingle(p)
	tms := w.Times(cluster.A800())
	lp := float64(w.L) / float64(p)
	perWorker := float64(w.N) * lp * (tms.F + tms.B + tms.W) // stage work for N mbs
	for _, s := range []string{"1f1b", "gpipe", "weipipe-interleave", "weipipe-naive"} {
		res := runStrategy(t, s, w, top)
		if res.Makespan < perWorker {
			t.Errorf("%s makespan %v below compute bound %v", s, res.Makespan, perWorker)
		}
	}
}

func TestWeiPipeWinsLongContextEthernet(t *testing.T) {
	// The headline claim: with long context (large G·S/H) on an
	// Ethernet-constrained ring, WeiPipe-Interleave out-throughputs 1F1B
	// and FSDP.
	p := 8
	w := cost.Workload{H: 2048, S: 16384, G: 4, L: 32, N: 32, P: p, Recompute: true}.WithDefaults()
	top := cluster.NVLinkEthernet(p, 4)

	wp := tput(w, runStrategy(t, "weipipe-interleave", w, top))
	f1b := tput(w, runStrategy(t, "1f1b", w, top))
	fsdp := tput(w, runStrategy(t, "fsdp", w, top))

	if wp <= f1b {
		t.Errorf("weipipe %v ≤ 1f1b %v on ethernet long-context", wp, f1b)
	}
	if wp <= fsdp {
		t.Errorf("weipipe %v ≤ fsdp %v on ethernet long-context", wp, fsdp)
	}
	// paper reports ~30–80% gains; require at least 15% here
	if wp < 1.15*maxf(f1b, fsdp) {
		t.Errorf("weipipe advantage too small: wp=%v 1f1b=%v fsdp=%v", wp, f1b, fsdp)
	}
}

func TestShortContextNVLinkCanFavorBaselines(t *testing.T) {
	// Table 4's honest negative result: small model / short activations on
	// pure NVLink lets the zero-bubble baselines catch up or win.
	p := 8
	w := cost.Workload{H: 4096, S: 512, G: 1, L: 16, N: 32, P: p, Recompute: false}.WithDefaults()
	top := cluster.NVLinkSingle(p)
	wp := tput(w, runStrategy(t, "weipipe-interleave", w, top))
	zb2 := tput(w, runStrategy(t, "zb2", w, top))
	if zb2 < wp*0.9 {
		t.Errorf("expected zb2 (%v) competitive with weipipe (%v) at short context on NVLink", zb2, wp)
	}
}

func TestInterleaveBeatsNaive(t *testing.T) {
	p := 4
	w := smallWorkload(p)
	top := cluster.NVLinkSingle(p)
	inter := runStrategy(t, "weipipe-interleave", w, top)
	naive := runStrategy(t, "weipipe-naive", w, top)
	if inter.Makespan >= naive.Makespan {
		t.Errorf("interleave %v not faster than naive %v", inter.Makespan, naive.Makespan)
	}
	if inter.BubbleRatio() >= naive.BubbleRatio() {
		t.Errorf("interleave bubble %v not below naive %v", inter.BubbleRatio(), naive.BubbleRatio())
	}
}

func TestZeroBubbleReducesBubble(t *testing.T) {
	p := 4
	w := smallWorkload(p)
	w.Recompute = false
	top := cluster.NVLinkSingle(p)
	f1b := runStrategy(t, "1f1b", w, top)
	zb2 := runStrategy(t, "zb2", w, top)
	if zb2.BubbleRatio() >= f1b.BubbleRatio() {
		t.Errorf("zb2 bubble %v not below 1f1b %v", zb2.BubbleRatio(), f1b.BubbleRatio())
	}
}

func TestBuildValidation(t *testing.T) {
	w := smallWorkload(4)
	if _, err := Build("nope", Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkSingle(4)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := Build("1f1b", Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkSingle(8)}); err == nil {
		t.Fatal("P mismatch accepted")
	}
	bad := w
	bad.N = 7
	if _, err := Build("1f1b", Spec{W: bad, GPU: cluster.A800(), Top: cluster.NVLinkSingle(4)}); err == nil {
		t.Fatal("indivisible N accepted")
	}
}

func TestWeiPipeCommVolumeIndependentOfSeqLen(t *testing.T) {
	// Doubling S (halving G to keep tokens fixed) must leave WeiPipe's wire
	// bytes unchanged while 1F1B's activation messages stay as big (G·S
	// fixed here, so compare against G·S growth instead): directly assert
	// chunk bytes don't depend on S or G.
	a := cost.Workload{H: 1024, S: 4096, G: 16, L: 8, N: 8, P: 4}.WithDefaults()
	b := cost.Workload{H: 1024, S: 16384, G: 64, L: 8, N: 8, P: 4}.WithDefaults()
	if chunkBytes(a, 1) != chunkBytes(b, 1) {
		t.Fatal("chunk bytes must not depend on S or G")
	}
	if a.ActBoundaryBytes() >= b.ActBoundaryBytes() {
		t.Fatal("activation bytes must grow with G·S")
	}
}

func TestGroupedScheduleBuildsOnGroupedTopologies(t *testing.T) {
	// wzb2g must be legal (no deadlock) on hierarchical rings at several
	// scales.
	for _, p := range []int{4, 8, 16} {
		spec := Spec{W: smallWorkload(p), GPU: cluster.A800(), Top: cluster.NVLinkEthernet(p, p/2)}
		tasks, err := Build("wzb2g", spec)
		if err != nil {
			t.Fatalf("p=%d build: %v", p, err)
		}
		if _, err := sim.Run(tasks); err != nil {
			t.Fatalf("p=%d run: %v", p, err)
		}
	}
}

func TestGroupedScheduleCutsInterGroupTraffic(t *testing.T) {
	// The tentpole claim in the simulator: on hierarchical topologies the
	// grouped belt moves strictly fewer bytes across group boundaries than
	// the flat belt, and no worse than TawPipe's headline direction — the
	// slow links stop carrying both weight belts every round.
	for _, tc := range []struct {
		top cluster.Topology
	}{
		{cluster.NVLinkEthernet(16, 4)},
		{cluster.PCIeEthernet(16, 4)},
		{cluster.NVLinkEthernet(32, 8)},
	} {
		p := tc.top.P
		w := smallWorkload(p)
		spec := Spec{W: w, GPU: cluster.A800(), Top: tc.top}
		flatTasks, flat, err := BuildTraffic("wzb2", spec)
		if err != nil {
			t.Fatal(err)
		}
		groupedTasks, grouped, err := BuildTraffic("wzb2g", spec)
		if err != nil {
			t.Fatal(err)
		}
		if grouped.InterBytes >= flat.InterBytes {
			t.Errorf("%s: grouped inter bytes %.3g not below flat %.3g",
				tc.top.Name, grouped.InterBytes, flat.InterBytes)
		}
		if grouped.InterSends >= flat.InterSends {
			t.Errorf("%s: grouped inter sends %d not below flat %d",
				tc.top.Name, grouped.InterSends, flat.InterSends)
		}
		// Ethernet is the bottleneck: less boundary traffic must not model
		// slower end-to-end.
		rFlat, err := sim.Run(flatTasks)
		if err != nil {
			t.Fatal(err)
		}
		rGrouped, err := sim.Run(groupedTasks)
		if err != nil {
			t.Fatal(err)
		}
		if rGrouped.Makespan > rFlat.Makespan+1e-9 {
			t.Errorf("%s: grouped makespan %v above flat %v",
				tc.top.Name, rGrouped.Makespan, rFlat.Makespan)
		}
	}
}

func TestTrafficClassificationFlat(t *testing.T) {
	// On a uniform ring everything is one group: flat wzb2 traffic must be
	// all-intra; on a two-group ring the D belt and both weight belts cross
	// the boundary links.
	p := 8
	w := smallWorkload(p)
	_, uni, err := BuildTraffic("wzb2", Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkSingle(p)})
	if err != nil {
		t.Fatal(err)
	}
	if uni.InterBytes != 0 || uni.InterSends != 0 {
		t.Errorf("uniform ring classified inter traffic: %+v", uni)
	}
	if uni.IntraBytes <= 0 {
		t.Errorf("uniform ring recorded no traffic: %+v", uni)
	}
	_, two, err := BuildTraffic("wzb2", Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkEthernet(p, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if two.InterBytes <= 0 || two.InterSends <= 0 {
		t.Errorf("grouped ring recorded no inter traffic for flat belt: %+v", two)
	}
	// Same schedule, same totals — only the classification moves.
	if got, want := two.IntraBytes+two.InterBytes, uni.IntraBytes; !closeEnough(got, want) {
		t.Errorf("total traffic changed with topology: %v vs %v", got, want)
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(a+b)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestSimulatorCostsProgram is the simulator half of "one program order, two
// readers": for every pipelined strategy, the compute tasks Build emits for a
// worker — in the order the simulator runs them — are exactly order.Program
// for that rank. WeiPipe-Naive's lockstep model fuses each B with its W into
// one "B+W" turn, so its W passes have no task of their own.
func TestSimulatorCostsProgram(t *testing.T) {
	for _, s := range append(order.Strategies(), "wzb2g") {
		for _, p := range []int{2, 4} {
			w := smallWorkload(p)
			w.N = 3 * p
			res := runStrategy(t, s, w, cluster.NVLinkEthernet(p, 2))
			for r := 0; r < p; r++ {
				var got []order.Op
				for _, task := range res.WorkerTimeline(r) {
					op := order.Op{Phase: task.Kind[0]}
					var worker int
					switch s {
					case "gpipe", "1f1b", "zb1", "zb2":
						var phase string
						if _, err := fmt.Sscanf(task.Label, "%1s%d@w%d", &phase, &op.MB, &worker); err != nil {
							t.Fatalf("%s: label %q: %v", s, task.Label, err)
						}
						op.Chunk = worker
					default:
						var phase string
						var k int
						if _, err := fmt.Sscanf(task.Label, "%s c%d k%d@w%d", &phase, &op.Chunk, &k, &worker); err != nil {
							t.Fatalf("%s: label %q: %v", s, task.Label, err)
						}
						op.MB = k*p + worker
					}
					if worker != r {
						t.Fatalf("%s: task %q on worker %d's timeline", s, task.Label, r)
					}
					got = append(got, op)
				}
				want, err := order.Program(s, r, p, w.N)
				if err != nil {
					t.Fatal(err)
				}
				if s == "weipipe-naive" {
					want = slices.DeleteFunc(want, func(op order.Op) bool { return op.Phase == 'W' })
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s p=%d worker %d simulated\n %v\nprogram is\n %v", s, p, r, got, want)
				}
			}
		}
	}
}

// TestRelayLeavesAtSenderPassStart: a relay waits for the compute before its
// sender's pass, as the runtime relays at the top of the pass, whether the
// sender's copy came off the belt or was kept; and, when it came off the
// belt, for the row that brought it (store and forward).
func TestRelayLeavesAtSenderPassStart(t *testing.T) {
	for _, s := range []string{"weipipe-interleave", "wzb1", "wzb2", "wzb2g"} {
		for _, p := range []int{2, 4} {
			m := 1
			if s == "wzb2g" {
				m = 2
			}
			for _, n := range []int{p, 2 * p, 3 * p} {
				w := smallWorkload(p)
				w.N = n
				tasks, err := Build(s, Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkEthernet(p, 2)})
				if err != nil {
					t.Fatal(err)
				}
				rows, err := order.Wiring(s, p, n, m)
				if err != nil {
					t.Fatal(err)
				}
				prog := make([][]int, p) // each worker's passes, in program order
				links := make(map[string]sim.Task)
				for _, task := range tasks {
					switch task.Kind {
					case "F", "B", "W":
						prog[task.Worker] = append(prog[task.Worker], task.ID)
					case "comm":
						links[task.Label] = task
					}
				}
				label := func(kind byte, c, use int) string {
					if kind == 'B' {
						return fmt.Sprintf("Wb c%d u%d", c, use)
					}
					return fmt.Sprintf("Wf c%d u%d", c, use)
				}
				relays := 0
				for _, r := range rows {
					if (r.Kind != 'F' && r.Kind != 'B') || r.Injects(m) {
						continue
					}
					task, ok := links[label(r.Kind, r.Chunk, r.Use)]
					if !ok {
						t.Fatalf("%s p=%d n=%d: no link task for %+v", s, p, n, r)
					}
					if r.Pass > 0 && !slices.Contains(task.Deps, prog[r.Src][r.Pass-1]) {
						t.Errorf("%s p=%d n=%d: %q leaves before its sender's pass starts", s, p, n, task.Label)
					}
					if in, ok := links[label(r.Kind, r.Chunk, r.Use-1)]; ok && !slices.Contains(task.Deps, in.ID) {
						t.Errorf("%s p=%d n=%d: %q leaves before %q brings its copy", s, p, n, task.Label, in.Label)
					}
					relays++
				}
				if relays == 0 {
					t.Errorf("%s p=%d n=%d: no relay checked", s, p, n)
				}
			}
		}
	}
}
