package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDecl declares one reported metric. BENCHMARK.json carries the same
// table; the smoke test fails when the two drift apart.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the trainer sees, measured with
// tracing off. The three timings are stated at the nominal host speed (see
// steps.normMs).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"tokens_per_s", "tok/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"wire_bytes_per_token", "B/tok", "lower", 0.01},
}

// perLayer are the per-module metrics of the traced run; the prefix names
// the module. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDecl{
	{"tensor.matmul_nn_gflops", "GFLOP/s", "higher", 0},
	{"tensor.matmul_nt_gflops", "GFLOP/s", "higher", 0},
	{"tensor.matmul_tn_gflops", "GFLOP/s", "higher", 0},
	{"tensor.softmax_rows_ms", "ms", "lower", 0},
	{"tensor.rmsnorm_rows_ms", "ms", "lower", 0},
	{"tensor.silu_ms", "ms", "lower", 0},

	{"nn.block_fwd_ms", "ms", "lower", 0},
	{"nn.block_bwd_input_ms", "ms", "lower", 0},
	{"nn.block_bwd_params_ms", "ms", "lower", 0},
	{"nn.attn_fwd_ms", "ms", "lower", 0},
	{"nn.attn_bwd_ms", "ms", "lower", 0},
	{"nn.attn_share", "share", "lower", 0},
	{"nn.act_mb_per_block", "MB", "lower", 0},

	{"optim.adamw_ns_per_param", "ns", "lower", 0},

	{"comm.chunk_oneway_gbps", "GB/s", "higher", 0},
	{"comm.chunk_rtt_ms", "ms", "lower", 0},
	{"comm.small_rtt_us", "us", "lower", 0},
	{"comm.crc_gbps", "GB/s", "higher", 0},
	{"comm.bf16_round_gbps", "GB/s", "higher", 0},
	{"comm.dial_ms", "ms", "lower", 0},
	{"comm.msgs_per_step", "count", "lower", 0},
	{"comm.bytes_per_step", "B", "lower", 0},
	{"comm.recv_wait_ms_per_step", "ms", "lower", 0},
	{"comm.belt_stall_ms_per_step", "ms", "lower", 0},
	{"comm.max_inflight_mb", "MB", "lower", 0},
	{"comm.retransmits_per_step", "count", "lower", 0},
	{"comm.timeouts", "count", "lower", 0},

	{"pipeline.fwd_ms", "ms", "lower", 0},
	{"pipeline.bwd_ms", "ms", "lower", 0},
	{"pipeline.wgrad_ms", "ms", "lower", 0},
	{"pipeline.opt_ms", "ms", "lower", 0},
	{"pipeline.exposed_ms", "ms", "lower", 0},
	{"pipeline.exposed_share", "share", "lower", 0},
	{"pipeline.unattributed_ms", "ms", "lower", 0},
	{"pipeline.stalls_per_step", "count", "lower", 0},
	{"pipeline.rank_skew_ms", "ms", "lower", 0},
	{"pipeline.arena_high_water_slots", "count", "lower", 0},
	{"pipeline.trainer_build_ms", "ms", "lower", 0},
	{"pipeline.serial_step_ms", "ms", "lower", 0},
	{"pipeline.step_ms_raw", "ms", "lower", 0},

	{"sim.pred_bubble_share", "share", "lower", 0},
	{"sim.model_err_pts", "pts", "lower", 0},
	{"sim.build_run_ms", "ms", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.dropped", "count", "lower", 0},

	{"checkpoint.capture_ms", "ms", "lower", 0},
	{"checkpoint.save_mb_per_s", "MB/s", "higher", 0},

	{"model.build_ms", "ms", "lower", 0},
	{"model.params", "count", "lower", 0},

	{"runtime.alloc_mb_per_step", "MB", "lower", 0},
	{"runtime.gc_cycles_per_step", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_step", "ms", "lower", 0},
	{"runtime.heap_live_mb", "MB", "lower", 0},

	{"host.calib_gflops", "GFLOP/s", "higher", 0},
	{"host.ref_gflops", "GFLOP/s", "higher", 0},
}

// declsFor returns the table a run emits: per-layer when traced.
func declsFor(traced bool) []metricDecl {
	if traced {
		return perLayer
	}
	return endToEnd
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one declared table. Emitting a name the
// table does not declare is a bug in the benchmark, hence the panic.
type metricSet struct {
	decls  []metricDecl
	values map[string]metric
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]metric, len(decls))}
}

func (m *metricSet) put(name string, v float64) {
	for _, d := range m.decls {
		if d.Name == name {
			m.values[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// check reports declared metrics that were not emitted or are not finite.
func (m *metricSet) check() []string {
	var problems []string
	for _, d := range m.decls {
		v, ok := m.values[d.Name]
		switch {
		case !ok:
			problems = append(problems, "metric not emitted: "+d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			problems = append(problems, fmt.Sprintf("metric %s is not finite: %v", d.Name, v.Value))
		}
	}
	return problems
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range as a share of the median, with the
// quartiles of Python's statistics.quantiles(xs, n=4) (exclusive method) so
// it reads the same as the acceptance driver's figure. Fewer than two values
// have no spread.
func spread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quantile := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quantile(3)-quantile(1)) / math.Abs(med)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t
}

func ms(ns float64) float64 { return ns / 1e6 }
