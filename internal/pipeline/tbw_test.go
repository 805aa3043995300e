package pipeline

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"weipipe/internal/cluster"
	"weipipe/internal/comm"
	"weipipe/internal/cost"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/order"
	"weipipe/internal/schedule"
	"weipipe/internal/trace"
)

// These tests verify the paper's central communication claim *functionally*
// — not through the cost model but by metering real bytes on the wire:
//
//   - WeiPipe's traffic is weights and weight-gradients only, and its
//     volume is independent of microbatch size G and sequence length S;
//   - activation-passing pipelines ship activations whose volume scales
//     linearly with G·S;
//   - FSDP's traffic is collective, one ring all-gather per gather its
//     plan (order.FSDP) makes and one reduce-scatter per module.

// runMetered trains one iteration and returns the aggregated meter.
func runMetered(t *testing.T, s Strategy, p int, cfg model.Config, g, seq, n int) *comm.Stats {
	t.Helper()
	cfg.MaxSeq = seq
	batches := data.Microbatches(5, n, g, cfg.Vocab, seq)
	res, err := RunCluster(s, p, cfg, eqOpts(), 1, func(int) []data.Batch { return batches })
	if err != nil {
		t.Fatal(err)
	}
	return res.TotalComm()
}

func tbwCfg() model.Config {
	return model.Config{Vocab: 13, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 16, Seed: 1}
}

func TestWeiPipeShipsNoActivations(t *testing.T) {
	st := runMetered(t, StrategyWeiPipeInterleave, 2, tbwCfg(), 2, 8, 4)
	if st.SentBytes(comm.KindAct) != 0 || st.SentBytes(comm.KindActGrad) != 0 {
		t.Fatalf("weipipe shipped activations: %s", st)
	}
	if st.SentBytes(comm.KindWeight) == 0 || st.SentBytes(comm.KindGrad) == 0 {
		t.Fatalf("weipipe shipped no weights/grads: %s", st)
	}
}

func TestWeiPipeWireVolumeIndependentOfGAndS(t *testing.T) {
	base := runMetered(t, StrategyWeiPipeInterleave, 2, tbwCfg(), 2, 8, 4)
	bigG := runMetered(t, StrategyWeiPipeInterleave, 2, tbwCfg(), 4, 8, 4)
	bigS := runMetered(t, StrategyWeiPipeInterleave, 2, tbwCfg(), 2, 16, 4)

	wb := st3(base)
	if st3(bigG) != wb {
		t.Fatalf("weight traffic changed with G: %d vs %d", st3(bigG), wb)
	}
	if st3(bigS) != wb {
		t.Fatalf("weight traffic changed with S: %d vs %d", st3(bigS), wb)
	}
}

// st3 sums the weight-pipeline kinds.
func st3(s *comm.Stats) int64 {
	return s.SentBytes(comm.KindWeight) + s.SentBytes(comm.KindGrad)
}

func TestActivationPassingScalesWithGS(t *testing.T) {
	base := runMetered(t, Strategy1F1B, 2, tbwCfg(), 2, 8, 4)
	bigG := runMetered(t, Strategy1F1B, 2, tbwCfg(), 4, 8, 4)
	bigS := runMetered(t, Strategy1F1B, 2, tbwCfg(), 2, 16, 4)

	if base.SentBytes(comm.KindWeight) != 0 || base.SentBytes(comm.KindGrad) != 0 {
		t.Fatalf("1f1b shipped weights: %s", base)
	}
	actBase := base.SentBytes(comm.KindAct) + base.SentBytes(comm.KindActGrad)
	actBigG := bigG.SentBytes(comm.KindAct) + bigG.SentBytes(comm.KindActGrad)
	actBigS := bigS.SentBytes(comm.KindAct) + bigS.SentBytes(comm.KindActGrad)
	if actBigG != 2*actBase {
		t.Fatalf("doubling G: activation traffic %d, want %d", actBigG, 2*actBase)
	}
	if actBigS != 2*actBase {
		t.Fatalf("doubling S: activation traffic %d, want %d", actBigS, 2*actBase)
	}
}

// beltCopies counts, per chunk, the weight-belt messages one flat iteration
// of strategy s sends, from its rows (order.Wiring): p−1 for every round the
// keep rule ships on either belt — one into every rank but the chunk's
// owner, which serves itself — less the early rows the wiring drops, and the
// rows among them that the owner injects at iteration start, which are not
// relays.
func beltCopies(t *testing.T, s Strategy, p, n int) (copies []int64, injections int64) {
	t.Helper()
	rows, err := order.Wiring(string(s), p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	copies = make([]int64, p)
	for _, r := range rows {
		if r.Kind == 'F' || r.Kind == 'B' {
			copies[r.Chunk]++
			if r.Pass < 0 {
				injections++
			}
		}
	}
	return copies, injections
}

// gradMessages counts the gradient messages chunk c takes in one iteration
// of strategy s, from its chain (order.GradChain of the plan's belt table):
// a hop wherever two consecutive uses run on different ranks, and the
// retire to the owner when the chain is not empty.
func gradMessages(t *testing.T, s Strategy, c, p, n int) int64 {
	t.Helper()
	ships, err := order.Shipped(string(s), p, n)
	if err != nil {
		t.Fatal(err)
	}
	chain := order.GradChain(c, p, n, ships)
	var msgs int64
	for i, j := range chain {
		if i == 0 || chain[i-1]%p != j%p {
			msgs++
		}
	}
	return msgs
}

// TestWeiPipePerTurnVolumeMatchesAnalysis pins the belts' wire volume exactly,
// from the chunk shapes and the plan, on every flat variant (§4.2.2: per
// belt use the wire carries at most the forward and backward weight chunks
// and one gradient chunk). A chunk's weights travel only in the rounds the
// plan ships, and then to every rank but its owner (beltCopies), so p=1
// ships none; the rest run on kept copies. A chunk's gradient takes the
// messages of its chain (gradMessages): (p−1)·(n/p − d) for p ≥ 3, where d
// counts its deferred rounds, the retire alone at p=2 and none at p=1, since
// the owner never ships its own W passes. Every variant defers round 0 of
// two chunks at n=2p: at p=3, chunks of 952, 1696 and 960 floats, the second
// and third take 2 messages, not 4, so the gradient is
// (952·4 + 1696·2 + 960·2)·4 = 36 480 B, not 57 728; at p=4, chunks of 952,
// 848, 848 and 960 floats, two chunks of 848 and 960 (naive: both last
// chunks, the others: chunks 1 and 3) take 3, not 6, so it is
// (952·6 + 848·9 + 960·3)·4 = 64 896 B, not 86 592.
func TestWeiPipePerTurnVolumeMatchesAnalysis(t *testing.T) {
	cfg := tbwCfg()
	mdl := model.Build(cfg)
	pinned := map[[2]int]int64{{3, 6}: 36_480, {4, 8}: 64_896}
	for _, s := range []Strategy{StrategyWeiPipeNaive, StrategyWeiPipeInterleave, StrategyWZB1, StrategyWZB2} {
		for p := 1; p <= 4; p++ {
			for _, n := range []int{p, 2 * p} {
				copies, _ := beltCopies(t, s, p, n)
				var weights, grads int64 // in floats
				for c, b := range mdl.Partition(p) {
					size := int64(mdl.ChunkSize(b[0], b[1]))
					weights += copies[c] * size
					grads += gradMessages(t, s, c, p, n) * size
				}
				st := runMetered(t, s, p, cfg, 2, 8, n)
				if got, want := st.SentBytes(comm.KindWeight), 4*weights; got != want {
					t.Errorf("%s p=%d n=%d: weight traffic %d B, want %d", s, p, n, got, want)
				}
				if got, want := st.SentBytes(comm.KindGrad), 4*grads; got != want {
					t.Errorf("%s p=%d n=%d: gradient traffic %d B, want %d", s, p, n, got, want)
				}
				if want, ok := pinned[[2]int{p, n}]; ok && 4*grads != want {
					t.Errorf("%s p=%d n=%d: the plan's gradient traffic is %d B, pinned %d", s, p, n, 4*grads, want)
				}
			}
		}
	}
}

// TestWZB2BeltBytesAtBenchmarkShapes pins one wzb2 iteration's weight and
// gradient bytes, loss scalars left out, at the two benchmark shapes (p=4,
// vocabulary 256, 4 heads, 4 layers, G=1): the wide one, H=256 S=8 n=8, and
// the long one, H=64 S=512 n=4. Under the keep rule forward-belt round 1 of
// chunk 2 and backward-belt round 0 of chunk 1 stay off the wide shape's
// wire, and backward-belt round 0 of chunk 2 off the long one's; no shipped
// round goes to its chunk's owner; rank 0 takes none of the early rows of a
// chunk it has already run (order.BeltPlan): B c0 use 0, F c0 use 4 and
// B c2 use 0 at the wide shape, (2 · 853 504 + 787 968) floats · 4 =
// 9 979 904 B, and B c0 use 0 at the long one, 65 920 floats · 4 =
// 263 680 B; and a chunk's gradient takes
// (4−1)·(n/4 − d) messages, not n (gradMessages), where d counts its
// deferred rounds: the wide shape defers round 0 of chunks 1 and 3, whose
// backward rounds its kept copies serve, which saves 3 messages of each,
// (787 968 + 853 760) floats · 3 · 4 = 19 700 736 B. So the gradient is
// 59 096 064 of the wide shape's bytes, not 105 062 400, and 2 771 712 of
// the long one's, not 3 695 616: at n=4 the one round is the last and
// defers nothing.
func TestWZB2BeltBytesAtBenchmarkShapes(t *testing.T) {
	for _, tc := range []struct {
		h, seq, n int
		want      int64
	}{
		{256, 8, 8, 167_308_288},
		{64, 512, 4, 6_665_216},
	} {
		cfg := model.Config{Vocab: 256, Hidden: tc.h, Layers: 4, Heads: 4, MaxSeq: tc.seq, Seed: 1}
		st := runMetered(t, StrategyWZB2, 4, cfg, 1, tc.seq, tc.n)
		if got := st3(st); got != tc.want {
			t.Errorf("H=%d S=%d n=%d: %d weight and gradient bytes an iteration, want %d", tc.h, tc.seq, tc.n, got, tc.want)
		}
	}
}

// TestSimulatorRelaysMatchRuntime: the runtime sends, and the simulator
// prices, exactly order.Wiring's rows, so a change to how weights travel
// cannot land in one reader and not the other. On every WeiPipe strategy —
// flat, and wzb2g in groups of 2 (3 at p=3) — at p 1…4 and n ∈ {p, 2p, 3p}:
//   - in process and over TCP, the weight and gradient messages the ranks
//     send in each iteration are the rows, as a multiset of source,
//     destination and tag;
//   - each row the simulator prices is one link task, on the resource its
//     kind names — the group fabric for an exchange hop into the owner's
//     group and a grouped injection, the boundary link out of the sending
//     group for an exchange hop between groups, the sender's ring link, two
//     links wide past the owner, for a relay or a gradient hop — and the
//     flat owner's injection and the retire are free. Naive's barrier model
//     prices no rows.
func TestSimulatorRelaysMatchRuntime(t *testing.T) {
	const iters = 2
	type link struct {
		res  string
		span int
	}
	for _, s := range beltStrategies {
		for p := 1; p <= 4; p++ {
			gs, m := ringGroupSize(p), 1
			if s == StrategyWZB2G {
				m = normalizeGroupSize(gs, p)
			}
			for _, n := range []int{p, 2 * p, 3 * p} {
				rows, err := order.Wiring(string(s), p, n, m)
				if err != nil {
					t.Fatal(err)
				}
				want := make(map[beltSend]int)
				for iter := 0; iter < iters; iter++ {
					w := &WeiPipe{iter: iter}
					for _, r := range rows {
						tag := w.rowTag(r)
						if r.Group { // as the group sub-transport salts it (comm.Group)
							tag.B ^= (groupedSaltBase + r.Src/m) << 55
						}
						want[beltSend{r.Src, r.Dst, tag}]++
					}
				}
				for _, overTCP := range []bool{false, true} {
					ran := make(map[beltSend]int)
					for _, bs := range beltTraffic(t, overTCP, s, p, n, gs) {
						ran[bs]++
					}
					if !maps.Equal(ran, want) {
						t.Errorf("%s p=%d n=%d tcp=%v: the runtime sent\n %v\nthe rows are\n %v", s, p, n, overTCP, ran, want)
					}
				}

				if s == StrategyWeiPipeNaive {
					continue
				}
				top := cluster.NVLinkSingle(p)
				if m > 1 {
					top = cluster.NVLinkEthernet(p, m)
				}
				w := cost.Workload{H: 64, S: 64, G: 1, L: 12, N: n, P: p}
				tasks, err := schedule.Build(string(s), schedule.Spec{W: w, GPU: cluster.A800(), Top: top})
				if err != nil {
					t.Fatal(err)
				}
				simulated := make(map[link]int)
				for _, task := range tasks {
					if task.Kind == "comm" {
						simulated[link{task.Resource, max(task.Span, 1)}]++
					}
				}
				priced := make(map[link]int)
				for _, r := range rows {
					switch {
					case r.Kind == 'R' || r.Injects(m) && !r.Group:
					case r.Kind == 'X' && r.Use == 0, r.Injects(m):
						priced[link{fmt.Sprintf("x%d", r.Src/m), 1}]++
					case r.Kind == 'X':
						priced[link{fmt.Sprintf("l%d", (r.Src/m+1)*m-1), 1}]++
					default:
						priced[link{fmt.Sprintf("l%d", r.Src), (r.Dst - r.Src + p) % p}]++
					}
				}
				if !maps.Equal(simulated, priced) {
					t.Errorf("%s p=%d n=%d: simulated link tasks\n %v\npriced rows\n %v", s, p, n, simulated, priced)
				}
			}
		}
	}
}

// beltSend is one belt message a rank sent: its source, destination and tag.
type beltSend struct {
	src, dst int
	tag      comm.Tag
}

// beltRecorder records every weight and gradient message its rank sends, by
// any of the three sends, with global ranks: a grouped belt's sub-transport
// sends through it.
type beltRecorder struct {
	comm.Transport
	mu    *sync.Mutex
	sends *[]beltSend
}

func (w *beltRecorder) record(dst int, tag comm.Tag) {
	if tag.Kind == comm.KindWeight || tag.Kind == comm.KindGrad {
		w.mu.Lock()
		*w.sends = append(*w.sends, beltSend{w.Rank(), dst, tag})
		w.mu.Unlock()
	}
}

func (w *beltRecorder) Send(dst int, tag comm.Tag, data []float32) error {
	w.record(dst, tag)
	return w.Transport.Send(dst, tag, data)
}

func (w *beltRecorder) SendOwned(dst int, tag comm.Tag, payload []float32) error {
	w.record(dst, tag)
	return w.Transport.SendOwned(dst, tag, payload)
}

func (w *beltRecorder) Forward(dst int, tag comm.Tag, payload []float32) error {
	w.record(dst, tag)
	return w.Transport.Forward(dst, tag, payload)
}

// beltTraffic runs strategy s for two iterations at p ranks over n
// microbatches with group size gs, in process or over TCP, and returns
// every weight and gradient message the ranks sent.
func beltTraffic(t *testing.T, overTCP bool, s Strategy, p, n, gs int) []beltSend {
	t.Helper()
	var trs []comm.Transport
	if overTCP {
		trs = dialMesh(t, p, comm.TCPOptions{})
	} else {
		trs = comm.NewCluster(p).Transports()
	}
	var mu sync.Mutex
	var sends []beltSend
	for r := range trs {
		trs[r] = &beltRecorder{Transport: trs[r], mu: &mu, sends: &sends}
	}
	opts := eqOpts()
	opts.GroupSize = gs
	runCfgOnTransports(t, trs, s, eqCfg(), opts, 2, eqBatches(2, n))
	for _, tr := range trs {
		tr.Close()
	}
	return sends
}

// beltStrategies is every WeiPipe strategy.
var beltStrategies = []Strategy{StrategyWeiPipeNaive, StrategyWeiPipeInterleave, StrategyWZB1, StrategyWZB2, StrategyWZB2G}

// ringGroupSize is the group size the traffic tests give wzb2g at p ranks:
// 2, or 3 at p=3. Below that the grouped belt falls back to the flat one.
func ringGroupSize(p int) int {
	if p == 3 {
		return 3
	}
	return 2
}

// TestHolderNeverReceivesItsChunk: no belt message for chunk c goes to a
// rank that holds c (order.Holds) — the owner on the flat belt, the group's
// holder on the grouped one — and no weight message at all is a self-send,
// on every flat variant and on wzb2g, in process and over TCP, at p 1…4 and
// n ∈ {p, 2p, 3p}. The grouped belt runs in groups of 2, or of 3 at p=3;
// below that it falls back to the flat belt. Holders do receive their
// chunks once an iteration, off the shard exchange, which is no belt.
func TestHolderNeverReceivesItsChunk(t *testing.T) {
	for _, overTCP := range []bool{false, true} {
		for _, s := range beltStrategies {
			for p := 1; p <= 4; p++ {
				gs := ringGroupSize(p)
				m := 1
				if s == StrategyWZB2G {
					m = normalizeGroupSize(gs, p)
				}
				for _, n := range []int{p, 2 * p, 3 * p} {
					sends := slices.DeleteFunc(beltTraffic(t, overTCP, s, p, n, gs), func(bs beltSend) bool {
						return bs.tag.Kind != comm.KindWeight
					})
					if p > 1 && len(sends) == 0 {
						t.Fatalf("%s p=%d n=%d: no weight message sent; the test proved nothing", s, p, n)
					}
					for _, ws := range sends {
						belt := (ws.tag.B >> beltUseBits) % beltCount
						if ws.src == ws.dst {
							t.Errorf("%s p=%d n=%d tcp=%v: rank %d sent chunk %d to itself", s, p, n, overTCP, ws.src, ws.tag.A)
						}
						if (belt == beltFwd || belt == beltBwd) && order.Holds(ws.dst, ws.tag.A, p, m) {
							t.Errorf("%s p=%d n=%d tcp=%v: rank %d sent chunk %d on belt %d to its holder, rank %d",
								s, p, n, overTCP, ws.src, ws.tag.A, belt, ws.dst)
						}
					}
				}
			}
		}
	}
}

// TestOwnerNeverShipsItsGradient: chunk c's owner accumulates its own W
// passes on c in place, so on every WeiPipe strategy — flat, and wzb2g in
// groups of 2 (3 at p=3) — in process and over TCP, at p 1…4 and
// n ∈ {p, 2p, 3p}, in every iteration:
//   - no gradient message is a self-send;
//   - the owner sends no gradient message for its own chunk, and receives
//     exactly one, the retire, when p ≥ 2;
//   - a chunk's gradient takes the messages of its chain (gradMessages).
func TestOwnerNeverShipsItsGradient(t *testing.T) {
	type key struct{ iter, c int }
	for _, overTCP := range []bool{false, true} {
		for _, s := range beltStrategies {
			for p := 1; p <= 4; p++ {
				for _, n := range []int{p, 2 * p, 3 * p} {
					msgs := make(map[key]int)
					ownerIn := make(map[key]int)
					for _, bs := range beltTraffic(t, overTCP, s, p, n, ringGroupSize(p)) {
						if bs.tag.Kind != comm.KindGrad {
							continue
						}
						k := key{int(bs.tag.B>>beltUseBits) / beltCount, bs.tag.A}
						owner := (k.c - 1 + p) % p
						msgs[k]++
						if bs.src == bs.dst {
							t.Errorf("%s p=%d n=%d tcp=%v: rank %d sent chunk %d's gradient to itself", s, p, n, overTCP, bs.src, k.c)
						}
						if bs.src == owner {
							t.Errorf("%s p=%d n=%d tcp=%v: owner %d shipped its chunk %d's gradient", s, p, n, overTCP, owner, k.c)
						}
						if bs.dst == owner {
							ownerIn[k]++
						}
					}
					for iter := 0; iter < 2; iter++ {
						for c := 0; c < p; c++ {
							k := key{iter, c}
							if want := int(gradMessages(t, s, c, p, n)); msgs[k] != want {
								t.Errorf("%s p=%d n=%d tcp=%v iter %d: chunk %d's gradient took %d messages, want %d",
									s, p, n, overTCP, iter, c, msgs[k], want)
							}
							if got := ownerIn[k]; p >= 2 && got != 1 {
								t.Errorf("%s p=%d n=%d tcp=%v iter %d: chunk %d's owner received %d gradient messages, want 1",
									s, p, n, overTCP, iter, c, got)
							}
						}
					}
				}
			}
		}
	}
}

// TestDeferredRoundsShipNoGradient: a round the backward belt serves from
// kept copies, the last round aside (order.Deferred), circulates no
// gradient — each rank holds its partial for its next W pass on the chunk —
// on every WeiPipe strategy, flat and wzb2g in groups of 2 (3 at p=3), in
// process and over TCP, at p 1…4 and n ∈ {p, 2p, 3p}, in every iteration:
//   - no gradient message carries a use of a deferred round;
//   - a chunk's gradient takes (p−1)·(n/p − d) messages for p ≥ 3, where d
//     counts its deferred rounds, one at p=2 and none at p=1;
//   - the owner receives exactly one retire when p ≥ 2.
func TestDeferredRoundsShipNoGradient(t *testing.T) {
	type key struct{ iter, c int }
	deferring := false // some point defers a round: the test proved something
	for _, overTCP := range []bool{false, true} {
		for _, s := range beltStrategies {
			for p := 1; p <= 4; p++ {
				for _, n := range []int{p, 2 * p, 3 * p} {
					ships, err := order.Shipped(string(s), p, n)
					if err != nil {
						t.Fatal(err)
					}
					msgs := make(map[key]int)
					retires := make(map[key]int)
					for _, bs := range beltTraffic(t, overTCP, s, p, n, ringGroupSize(p)) {
						if bs.tag.Kind != comm.KindGrad {
							continue
						}
						hi := int(bs.tag.B >> beltUseBits)
						k, use := key{hi / beltCount, bs.tag.A}, int(bs.tag.B&(1<<beltUseBits-1))
						msgs[k]++
						switch hi % beltCount {
						case beltRetire:
							if bs.dst == (k.c-1+p)%p {
								retires[k]++
							}
						case beltBwd:
							if order.Deferred(ships, k.c, use/p) {
								t.Errorf("%s p=%d n=%d tcp=%v: chunk %d's gradient travelled to use %d, of deferred round %d",
									s, p, n, overTCP, k.c, use, use/p)
							}
						}
					}
					for c := 0; c < p; c++ {
						d := 0
						for k := 0; k < n/p; k++ {
							if order.Deferred(ships, c, k) {
								d++
							}
						}
						deferring = deferring || p >= 3 && d > 0
						want := (p - 1) * (n/p - d)
						switch p {
						case 1:
							want = 0
						case 2:
							want = 1
						}
						for iter := 0; iter < 2; iter++ {
							k := key{iter, c}
							if msgs[k] != want {
								t.Errorf("%s p=%d n=%d tcp=%v iter %d: chunk %d's gradient took %d messages with %d rounds deferred, want %d",
									s, p, n, overTCP, iter, c, msgs[k], d, want)
							}
							if got := retires[k]; p >= 2 && got != 1 {
								t.Errorf("%s p=%d n=%d tcp=%v iter %d: chunk %d's owner received %d retires, want 1",
									s, p, n, overTCP, iter, c, got)
							}
						}
					}
				}
			}
		}
	}
	if !deferring {
		t.Fatal("no point defers a round at p ≥ 3; the test proved nothing")
	}
}

// fsdpCollective is one FSDP iteration's collective traffic, summed over the
// ranks, from the module shapes and order.FSDP's plan: every ring all-gather
// and reduce-scatter of a module moves each of its elements p−1 times in
// p(p−1) messages, and the loss's scalar all-reduce is both ring phases over
// one element.
func fsdpCollective(mdl *model.Model, p, n int) (bytes, msgs int64) {
	ring, hops := int64(p*(p-1)), int64(p-1)
	for _, u := range order.FSDP(len(mdl.Modules), n/p) {
		if u.Gather {
			bytes += 4 * hops * int64(mdl.ModuleParamSize(u.Chunk))
			msgs += ring
		}
	}
	for i := range mdl.Modules {
		bytes += 4 * hops * int64(mdl.ModuleParamSize(i))
		msgs += ring
	}
	return bytes + 2*4*hops, msgs + 2*ring
}

// TestFSDPTrafficIsCollective pins FSDP's wire traffic exactly: collectives
// only, the bytes and messages of the gathers order.FSDP plans, one
// reduce-scatter per module and the loss's all-reduce.
func TestFSDPTrafficIsCollective(t *testing.T) {
	mdl := model.BuildShells(tbwCfg())
	for p := 2; p <= 4; p++ {
		for _, n := range []int{p, 2 * p} {
			st := runMetered(t, StrategyFSDP, p, tbwCfg(), 2, 8, n)
			if st.SentBytes(comm.KindAct) != 0 || st.SentBytes(comm.KindWeight) != 0 || st.SentBytes(comm.KindGrad) != 0 {
				t.Fatalf("fsdp sent P2P tensor traffic: %s", st)
			}
			bytes, msgs := fsdpCollective(mdl, p, n)
			if got := st.SentBytes(comm.KindColl); got != bytes {
				t.Errorf("p=%d n=%d: collective traffic %d B, want %d", p, n, got, bytes)
			}
			if got := st.SentMsgs(comm.KindColl); got != msgs {
				t.Errorf("p=%d n=%d: %d collective messages, want %d", p, n, got, msgs)
			}
		}
	}
}

// gatherKey names one FSDP all-gather: the rank's local microbatch, the
// module, and the pass it feeds ('F', or 'B' for B+W).
type gatherKey struct {
	mb, mod int
	phase   byte
}

// TestSimulatorGathersMatchRuntime: the all-gathers the simulator's FSDP
// emits — its "ag" and "ag-b" fabric tasks — are, by (microbatch, module,
// pass), the ones every runtime rank makes — each traced stall span paired
// with the F or B span after it — so the keep rule cannot land in one reader
// and not the other. Each rank's stall spans per iteration are the plan's
// gather count.
func TestSimulatorGathersMatchRuntime(t *testing.T) {
	const iters = 2
	cfg := tbwCfg()
	cfg.Layers = 12 // the simulator splits the layers evenly over p ∈ {2, 3, 4}
	for p := 2; p <= 4; p++ {
		for _, n := range []int{p, 2 * p} {
			planned := 0
			for _, u := range order.FSDP(cfg.NumModules(), n/p) {
				if u.Gather {
					planned++
				}
			}
			w := cost.Workload{H: 64, S: 64, G: 1, L: cfg.Layers, N: n, P: p}
			tasks, err := schedule.Build(string(StrategyFSDP), schedule.Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkSingle(p)})
			if err != nil {
				t.Fatal(err)
			}
			simulated := make(map[gatherKey]int)
			for _, task := range tasks {
				var k gatherKey
				if _, err := fmt.Sscanf(task.Label, "ag m%d mod%d", &k.mb, &k.mod); err == nil {
					k.phase = 'F'
				} else if _, err := fmt.Sscanf(task.Label, "ag-b m%d mod%d", &k.mb, &k.mod); err == nil {
					k.phase = 'B'
				} else {
					continue
				}
				simulated[k] += iters
			}

			set := trace.NewSet(p, 1<<14)
			batches := data.Microbatches(5, n, 2, cfg.Vocab, 8)
			if _, err := RunCluster(StrategyFSDP, p, cfg, Options{Trace: set}, iters,
				func(int) []data.Batch { return batches }); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				ran := make(map[gatherKey]int)
				stalls, gathered := 0, false
				for _, e := range set.Rank(r).Events() {
					switch e.Code {
					case trace.CodeStall:
						stalls++
						gathered = true
					case trace.CodeF, trace.CodeB:
						if gathered {
							phase := byte('F')
							if e.Code == trace.CodeB {
								phase = 'B'
							}
							ran[gatherKey{int(e.A), int(e.B), phase}]++
							gathered = false
						}
					}
				}
				if stalls != iters*planned {
					t.Errorf("p=%d n=%d rank %d: %d stall spans in %d iterations, want %d a iteration",
						p, n, r, stalls, iters, planned)
				}
				if !maps.Equal(ran, simulated) {
					t.Errorf("p=%d n=%d rank %d: runtime gathers\n %v\nsimulated\n %v", p, n, r, ran, simulated)
				}
			}
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	a := comm.NewStats()
	b := comm.NewStats()
	cl := comm.NewCluster(2)
	tr := cl.Transport(0)
	tr.Send(1, comm.Tag{Kind: comm.KindWeight}, make([]float32, 10))
	tr.Send(1, comm.Tag{Kind: comm.KindGrad}, make([]float32, 5))
	a.Add(cl.Stats(0))
	b.Add(cl.Stats(0))
	b.Add(cl.Stats(0))
	if a.SentBytes(comm.KindWeight) != 40 || a.SentMsgs(comm.KindWeight) != 1 {
		t.Fatalf("meter wrong: %s", a)
	}
	if b.SentBytes(comm.KindWeight) != 80 {
		t.Fatalf("aggregation wrong: %s", b)
	}
	if a.TotalSentBytes() != 60 {
		t.Fatalf("total = %d", a.TotalSentBytes())
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}
