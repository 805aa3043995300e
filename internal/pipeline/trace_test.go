package pipeline

import (
	"slices"
	"testing"

	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/order"
	"weipipe/internal/trace"
)

// traceTestConfig is a tiny 4-layer model, enough for a p=2 ring.
func traceTestConfig() model.Config {
	return model.Config{Vocab: 13, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 8, Seed: 7}
}

func traceTestBatches(n int) []data.Batch {
	gen := data.NewGenerator(99, traceTestConfig().Vocab, 8)
	out := make([]data.Batch, n)
	for i := range out {
		out[i] = gen.Next(1)
	}
	return out
}

// codesByRank collects which span codes each rank emitted.
func codesByRank(set *trace.Set) map[int32]map[trace.Code]int {
	out := make(map[int32]map[trace.Code]int)
	for _, e := range set.Events() {
		m := out[e.Rank]
		if m == nil {
			m = make(map[trace.Code]int)
			out[e.Rank] = m
		}
		m[e.Code]++
	}
	return out
}

// TestWeiPipeTraceOverlap runs a WZB2 cluster with tracing on and checks
// every instrumentation layer reported — per-stage compute spans, step and
// optimizer spans, stall spans, belt relay spans and transport send/recv
// spans, on every rank — and that the relay overlaps compute the way the
// belt promises: the relay of use j+1 is enqueued before the F or B stage of
// use j starts computing, so the next hop's wire time runs under that
// compute, not after it.
func TestWeiPipeTraceOverlap(t *testing.T) {
	const p, n, iters = 2, 4, 2
	set := trace.NewSet(p, 1<<14)
	opts := Options{Trace: set}
	batches := traceTestBatches(n)
	res, err := RunCluster(StrategyWZB2, p, traceTestConfig(), opts, iters,
		func(int) []data.Batch { return batches })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != iters {
		t.Fatalf("losses = %d", len(res.Losses))
	}
	if set.Dropped() != 0 {
		t.Fatalf("ring overflowed: %d dropped", set.Dropped())
	}

	byRank := codesByRank(set)
	if len(byRank) != p {
		t.Fatalf("ranks seen = %d, want %d", len(byRank), p)
	}
	// Per rank per iteration: R rounds × p chunks = n stages of each kind.
	wantStages := n * iters
	totalRelays := 0
	for rank, codes := range byRank {
		if codes[trace.CodeStep] != iters {
			t.Errorf("rank %d: step spans = %d, want %d", rank, codes[trace.CodeStep], iters)
		}
		for _, c := range []trace.Code{trace.CodeF, trace.CodeB, trace.CodeW} {
			if codes[c] != wantStages {
				t.Errorf("rank %d: %v spans = %d, want %d", rank, c, codes[c], wantStages)
			}
		}
		if codes[trace.CodeOpt] != iters {
			t.Errorf("rank %d: opt spans = %d, want %d", rank, codes[trace.CodeOpt], iters)
		}
		if codes[trace.CodeStall] == 0 {
			t.Errorf("rank %d: no stall spans", rank)
		}
		if codes[trace.CodeSend] == 0 || codes[trace.CodeRecv] == 0 {
			t.Errorf("rank %d: transport spans missing (send=%d recv=%d)",
				rank, codes[trace.CodeSend], codes[trace.CodeRecv])
		}
		totalRelays += codes[trace.CodeRelay]
	}
	// Every use the plan ships to a rank that does not own the chunk is
	// relayed but an iteration's first, which the owner injects
	// (TestWeiPipePerTurnVolumeMatchesAnalysis pins the same count in bytes).
	copies, injections := beltCopies(t, StrategyWZB2, p, n)
	want := -int(injections)
	for _, c := range copies {
		want += int(c)
	}
	if want *= iters; totalRelays != want {
		t.Errorf("relay spans = %d, want %d", totalRelays, want)
	}

	// Relay order. Events come back sorted by start time and a rank's relay
	// and stage spans all start on its compute thread, so per rank they lie
	// in the order they ran: a relay span (belt, next use) must be followed
	// at once by the stage of that belt consuming use−1 — this rank's
	// microbatch of that index — and must have ended before that stage began.
	lastRelay := make(map[int32]*trace.Event)
	for _, e := range set.Events() {
		e := e
		switch e.Code {
		case trace.CodeRelay:
			if prev := lastRelay[e.Rank]; prev != nil {
				t.Fatalf("rank %d: relay of use %d follows relay of use %d with no stage between", e.Rank, e.B, prev.B)
			}
			lastRelay[e.Rank] = &e
		case trace.CodeF, trace.CodeB:
			r := lastRelay[e.Rank]
			if r == nil {
				continue // the chunk's last use: nothing to relay
			}
			lastRelay[e.Rank] = nil
			wantBelt := int64(beltFwd)
			if e.Code == trace.CodeB {
				wantBelt = beltBwd
			}
			if r.A != wantBelt || r.B != e.A+1 {
				t.Fatalf("rank %d: relay (belt %d, use %d) precedes %v of microbatch %d", e.Rank, r.A, r.B, e.Code, e.A)
			}
			if r.Start+r.Dur > e.Start {
				t.Fatalf("rank %d: relay of use %d ended at %d, after %v of use %d began at %d",
					e.Rank, r.B, r.Start+r.Dur, e.Code, e.A, e.Start)
			}
		}
	}

	// The metrics rollup must attribute compute into every step span.
	ms := trace.PerIteration(set.Events())
	if len(ms) != p*iters {
		t.Fatalf("metrics rows = %d, want %d", len(ms), p*iters)
	}
	for _, m := range ms {
		if m.Step <= 0 || m.Fwd <= 0 || m.Bwd <= 0 || m.Wgrad <= 0 {
			t.Fatalf("empty metrics row: %+v", m)
		}
	}

	// And the Chrome export must carry it all.
	blob, err := set.ChromeTrace(&trace.RunMeta{Strategy: "wzb2", P: p, N: n, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	events, meta, err := trace.ParseChrome(blob)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || meta.Strategy != "wzb2" {
		t.Fatalf("meta = %+v", meta)
	}
	if len(events) == 0 {
		t.Fatal("no chrome events")
	}
}

// TestTraceBlockingModeStalls checks that the compute thread's blocking
// belt receives show up as stall spans next to the compute spans they
// delay.
func TestTraceBlockingModeStalls(t *testing.T) {
	const p, n = 2, 2
	set := trace.NewSet(p, 1<<13)
	opts := Options{Trace: set}
	batches := traceTestBatches(n)
	if _, err := RunCluster(StrategyWZB2, p, traceTestConfig(), opts, 1,
		func(int) []data.Batch { return batches }); err != nil {
		t.Fatal(err)
	}
	byRank := codesByRank(set)
	for rank, codes := range byRank {
		if codes[trace.CodeStall] == 0 {
			t.Errorf("rank %d: no stall spans", rank)
		}
		if codes[trace.CodeF] == 0 || codes[trace.CodeB] == 0 || codes[trace.CodeW] == 0 {
			t.Errorf("rank %d: compute spans missing", rank)
		}
	}
}

// TestTraceOffIsUntouched pins that a run without a trace set behaves
// identically and that instrumented runners tolerate the nil tracer (the
// rest of the suite runs with tracing off, so any panic would surface
// there too — this is the explicit contract check).
func TestTraceOffIsUntouched(t *testing.T) {
	const p, n = 2, 2
	batches := traceTestBatches(n)
	on := trace.NewSet(p, 1<<13)
	resOff, err := RunCluster(StrategyWZB2, p, traceTestConfig(), Options{}, 1,
		func(int) []data.Batch { return batches })
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := RunCluster(StrategyWZB2, p, traceTestConfig(), Options{Trace: on}, 1,
		func(int) []data.Batch { return batches })
	if err != nil {
		t.Fatal(err)
	}
	// Tracing must not perturb the numerics: bit-identical weights.
	if len(resOff.Weights) != len(resOn.Weights) {
		t.Fatal("weight length mismatch")
	}
	for i := range resOff.Weights {
		if resOff.Weights[i] != resOn.Weights[i] {
			t.Fatalf("weights diverge at %d: %v != %v", i, resOff.Weights[i], resOn.Weights[i])
		}
	}
}

// TestRuntimeFollowsProgram is the runtime half of "one program order, two
// readers": for every pipelined strategy, each rank's traced F/B/W spans
// (whose args carry the microbatch and the chunk or stage) are exactly
// order.Program for that rank, iteration after iteration. An odd ring rides
// along.
func TestRuntimeFollowsProgram(t *testing.T) {
	const iters = 2
	strategies := append(order.Strategies(), string(StrategyWZB2G))
	for _, shape := range []struct{ p, n int }{{2, 4}, {3, 6}} {
		batches := traceTestBatches(shape.n)
		for _, s := range strategies {
			set := trace.NewSet(shape.p, 1<<14)
			_, err := RunCluster(Strategy(s), shape.p, traceTestConfig(), Options{Trace: set}, iters,
				func(int) []data.Batch { return batches })
			if err != nil {
				t.Fatalf("%s p=%d: %v", s, shape.p, err)
			}
			if set.Dropped() != 0 {
				t.Fatalf("%s p=%d: ring overflowed", s, shape.p)
			}
			ran := make([][]order.Op, shape.p)
			for _, e := range set.Events() {
				var phase byte
				switch e.Code {
				case trace.CodeF:
					phase = 'F'
				case trace.CodeB:
					phase = 'B'
				case trace.CodeW:
					phase = 'W'
				default:
					continue
				}
				ran[e.Rank] = append(ran[e.Rank], order.Op{Phase: phase, MB: int(e.A), Chunk: int(e.B)})
			}
			for r := 0; r < shape.p; r++ {
				prog, err := order.Program(s, r, shape.p, shape.n)
				if err != nil {
					t.Fatal(err)
				}
				var want []order.Op
				for i := 0; i < iters; i++ {
					want = append(want, prog...)
				}
				if !slices.Equal(ran[r], want) {
					t.Errorf("%s p=%d rank %d ran\n %v\nprogram is\n %v", s, shape.p, r, ran[r], want)
				}
			}
		}
	}
}

// TestStallSpansLieOutsideOptSpans pins that a span counts towards one phase
// only: the rollup adds stall time to Exposed and optimizer time to Opt, so a
// wait recorded inside an opt span would be counted twice (and the step's
// unattributed remainder would go negative). On no strategy and no rank may a
// stall span overlap an opt span.
func TestStallSpansLieOutsideOptSpans(t *testing.T) {
	const p, n, iters = 2, 4, 2
	batches := traceTestBatches(n)
	strategies := append(order.Strategies(), string(StrategyWZB2G), string(StrategyFSDP), string(StrategyDP))
	for _, s := range strategies {
		set := trace.NewSet(p, 1<<14)
		if _, err := RunCluster(Strategy(s), p, traceTestConfig(), Options{Trace: set}, iters,
			func(int) []data.Batch { return batches }); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		var opts, stalls [p][]trace.Event
		for _, e := range set.Events() {
			switch e.Code {
			case trace.CodeOpt:
				opts[e.Rank] = append(opts[e.Rank], e)
			case trace.CodeStall:
				stalls[e.Rank] = append(stalls[e.Rank], e)
			}
		}
		for r := 0; r < p; r++ {
			if len(opts[r]) != iters {
				t.Fatalf("%s rank %d: %d opt spans, want %d", s, r, len(opts[r]), iters)
			}
			for _, o := range opts[r] {
				for _, st := range stalls[r] {
					if st.Start < o.Start+o.Dur && st.Start+st.Dur > o.Start {
						t.Errorf("%s rank %d: stall [%d, %d] (kind %d) overlaps opt [%d, %d]",
							s, r, st.Start, st.Start+st.Dur, st.A, o.Start, o.Start+o.Dur)
					}
				}
			}
		}
	}
}
