package order

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

var stageFamily = map[string]bool{"gpipe": true, "1f1b": true, "zb1": true, "zb2": true}

// grid is one (strategy, p, n) point and every rank's program at it.
type grid struct {
	strategy string
	p, n     int
	progs    [][]Op
}

func (g grid) String() string { return fmt.Sprintf("%s p=%d n=%d", g.strategy, g.p, g.n) }

// forEachGrid visits every strategy at p ∈ 1…8 and n ∈ {p, 2p, 3p}, plus, for
// the activation-passing four, microbatch counts that are not multiples of p
// (including fewer microbatches than stages).
func forEachGrid(t *testing.T, visit func(g grid)) {
	t.Helper()
	for _, s := range Strategies() {
		for p := 1; p <= 8; p++ {
			ns := []int{p, 2 * p, 3 * p}
			if stageFamily[s] {
				ns = append(ns, 1, p-1, p+1, 2*p+3)
			}
			for _, n := range ns {
				g := grid{strategy: s, p: p, n: n}
				for r := 0; r < p; r++ {
					prog, err := Program(s, r, p, n)
					if err != nil {
						t.Fatalf("%v rank %d: %v", g, r, err)
					}
					g.progs = append(g.progs, prog)
				}
				visit(g)
			}
		}
	}
}

// spell renders a stage program without its (constant) chunk: "F0 B0 W0".
func spell(prog []Op) string {
	var parts []string
	for _, op := range prog {
		parts = append(parts, fmt.Sprintf("%c%d", op.Phase, op.MB))
	}
	return strings.Join(parts, " ")
}

// TestProgramTable pins a few programs by hand — in particular ZB1's
// pending-W rule on the last stage, where the runtime and the simulator used
// to disagree.
func TestProgramTable(t *testing.T) {
	for _, tc := range []struct {
		strategy   string
		rank, p, n int
		want       string
	}{
		{"zb1", 1, 2, 4, "F0 B0 F1 B1 W0 F2 B2 W1 F3 B3 W2 W3"},
		{"zb1", 0, 2, 4, "F0 F1 B0 F2 B1 W0 F3 B2 W1 B3 W2 W3"},
		{"zb2", 1, 2, 3, "F0 B0 F1 B1 F2 B2 W0 W1 W2"},
		{"1f1b", 0, 2, 3, "F0 F1 B0 W0 F2 B1 W1 B2 W2"},
		{"gpipe", 0, 2, 2, "F0 F1 B1 W1 B0 W0"},
	} {
		prog, err := Program(tc.strategy, tc.rank, tc.p, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := spell(prog); got != tc.want {
			t.Errorf("%s rank %d p=%d n=%d:\n got %s\nwant %s", tc.strategy, tc.rank, tc.p, tc.n, got, tc.want)
		}
	}
	// Belt programs name the chunk: rank 1 of 2 runs microbatches 1 and 3.
	for _, tc := range []struct{ strategy, want string }{
		{"weipipe-naive", "F1/0 F1/1 B1/1 W1/1 B1/0 W1/0 F3/0 F3/1 B3/1 W3/1 B3/0 W3/0"},
		{"weipipe-interleave", "F1/0 F1/1 F3/0 B1/1 W1/1 F3/1 B1/0 W1/0 B3/1 W3/1 B3/0 W3/0"},
		{"wzb1", "F1/0 F1/1 F3/0 B1/1 F3/1 B1/0 W1/1 B3/1 W1/0 B3/0 W3/1 W3/0"},
		{"wzb2", "F1/0 F1/1 F3/0 B1/1 F3/1 B1/0 W1/0 W1/1 B3/1 B3/0 W3/0 W3/1"},
	} {
		prog, err := Program(tc.strategy, 1, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Trim(fmt.Sprint(prog), "[]"); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.strategy, got, tc.want)
		}
	}
}

func TestProgramRejects(t *testing.T) {
	for _, tc := range []struct {
		strategy   string
		rank, p, n int
	}{
		{"fsdp", 0, 2, 4},
		{"wzb2", 0, 2, 3},
		{"1f1b", 2, 2, 4},
		{"1f1b", -1, 2, 4},
		{"1f1b", 0, 0, 4},
	} {
		if _, err := Program(tc.strategy, tc.rank, tc.p, tc.n); err == nil {
			t.Errorf("Program(%q, %d, %d, %d) accepted", tc.strategy, tc.rank, tc.p, tc.n)
		}
	}
	a, _ := Program("wzb2", 1, 2, 4)
	b, err := Program("wzb2g", 1, 2, 4)
	if err != nil || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("wzb2g does not share wzb2's program: %v %v", b, err)
	}
}

// TestEveryPassOnceInOrder: a rank runs each (MB, Chunk) it is responsible
// for exactly once per phase, F before B before W, and within a microbatch
// its F chunks ascend and its B chunks descend.
func TestEveryPassOnceInOrder(t *testing.T) {
	type key struct {
		phase     byte
		mb, chunk int
	}
	forEachGrid(t, func(g grid) {
		for r, prog := range g.progs {
			at := make(map[key]int)
			lastF, lastB := map[int]int{}, map[int]int{}
			for i, op := range prog {
				k := key{op.Phase, op.MB, op.Chunk}
				if _, dup := at[k]; dup {
					t.Fatalf("%v rank %d: %v runs twice", g, r, op)
				}
				at[k] = i
				switch op.Phase {
				case 'F':
					if prev, ok := lastF[op.MB]; ok && op.Chunk <= prev {
						t.Fatalf("%v rank %d: %v after chunk %d", g, r, op, prev)
					}
					lastF[op.MB] = op.Chunk
				case 'B':
					if prev, ok := lastB[op.MB]; ok && op.Chunk >= prev {
						t.Fatalf("%v rank %d: %v after chunk %d", g, r, op, prev)
					}
					lastB[op.MB] = op.Chunk
				}
			}
			// Responsibility: stage r runs every microbatch on chunk r; belt
			// rank r runs microbatches ≡ r (mod p) on every chunk.
			want := 0
			for m := 0; m < g.n; m++ {
				for c := 0; c < g.p; c++ {
					mine := c == r
					if !stageFamily[g.strategy] {
						mine = m%g.p == r
					}
					if !mine {
						continue
					}
					want += 3
					f, okF := at[key{'F', m, c}]
					b, okB := at[key{'B', m, c}]
					w, okW := at[key{'W', m, c}]
					if !okF || !okB || !okW {
						t.Fatalf("%v rank %d: (mb %d, chunk %d) misses a pass", g, r, m, c)
					}
					if !(f < b && b < w) {
						t.Fatalf("%v rank %d: (mb %d, chunk %d) runs F@%d B@%d W@%d", g, r, m, c, f, b, w)
					}
				}
			}
			if len(prog) != want {
				t.Fatalf("%v rank %d: %d ops, want %d", g, r, len(prog), want)
			}
		}
	})
}

// TestPendingWBound: B passes whose W has not run, counted after each W, stay
// within the strategy's bound — 0 for the fused orders, 1 for wzb1,
// max(warm-up, 1) for zb1 while forwards remain (its cool-down B passes run
// back to back), and no bound until the drain for zb2 and wzb2.
func TestPendingWBound(t *testing.T) {
	forEachGrid(t, func(g grid) {
		for r, prog := range g.progs {
			var bound int
			switch g.strategy {
			case "zb2", "wzb2":
				continue
			case "wzb1":
				bound = 1
			case "zb1":
				bound = max(warmupOf(r, g.p, g.n), 1)
			}
			forwardsLeft := 0
			for _, op := range prog {
				if op.Phase == 'F' {
					forwardsLeft++
				}
			}
			pending := 0
			for _, op := range prog {
				switch op.Phase {
				case 'F':
					forwardsLeft--
				case 'B':
					pending++
				case 'W':
					pending--
					if pending > bound && (g.strategy != "zb1" || forwardsLeft > 0) {
						t.Fatalf("%v rank %d: %d W passes pending after %v, bound %d", g, r, pending, op, bound)
					}
				}
			}
		}
	})
}

// inFlight returns the peak number of microbatches that have had a pass of
// phase `from` and not yet their last pass of phase `to`.
func inFlight(prog []Op, from, to byte) int {
	left := make(map[int]int) // passes of phase `to` a microbatch still owes
	for _, op := range prog {
		if op.Phase == to {
			left[op.MB]++
		}
	}
	open := make(map[int]bool)
	peak := 0
	for _, op := range prog {
		switch op.Phase {
		case from:
			open[op.MB] = true
			peak = max(peak, len(open))
		case to:
			if left[op.MB]--; left[op.MB] == 0 {
				delete(open, op.MB)
			}
		}
	}
	return peak
}

// TestActivationsInFlight pins how many microbatches' activations a rank
// holds at once — the memory half of every schedule's claim. On 1f1b, zb1
// and zb2 at most warm-up+1 microbatches are forwarded and not yet B-passed;
// F-to-last-W, 1f1b holds the same warm-up+1, zb1 at most max(warm-up, 1)
// more, and a belt rank a small constant: 1 under naive, 2 under interleave
// and wzb2, 3 under wzb1, whose last W of a round lands a step into the next
// turn. The belt constants are attained from three rounds up.
func TestActivationsInFlight(t *testing.T) {
	beltPeak := map[string]int{"weipipe-naive": 1, "weipipe-interleave": 2, "wzb1": 3, "wzb2": 2}
	forEachGrid(t, func(g grid) {
		for r, prog := range g.progs {
			warmup := warmupOf(r, g.p, g.n)
			fb, fw := inFlight(prog, 'F', 'B'), inFlight(prog, 'F', 'W')
			switch g.strategy {
			case "1f1b", "zb1", "zb2":
				if fb > warmup+1 {
					t.Fatalf("%v rank %d: %d microbatches forwarded and not B-passed, warm-up %d", g, r, fb, warmup)
				}
			}
			switch g.strategy {
			case "1f1b":
				if fw > warmup+1 {
					t.Fatalf("%v rank %d: %d microbatches in flight, warm-up %d", g, r, fw, warmup)
				}
			case "zb1":
				if fw > warmup+1+max(warmup, 1) {
					t.Fatalf("%v rank %d: %d microbatches in flight, warm-up %d", g, r, fw, warmup)
				}
			case "gpipe", "zb2":
				if fw != g.n {
					t.Fatalf("%v rank %d: %d microbatches in flight, want all %d", g, r, fw, g.n)
				}
			default:
				want := beltPeak[g.strategy]
				if fw > want || (g.n >= 3*g.p && fw != want) {
					t.Fatalf("%v rank %d: %d microbatches in flight, want %d", g, r, fw, want)
				}
			}
		}
	})
}

// TestNoWaitCycle runs all ranks' programs on a token-passing executor: an op
// starts when the ops before it on its rank have run and its input token is
// there. Stage r's F(m) needs F(m) of stage r−1 and its B(m) needs B(m) of
// stage r+1. On the belts, use j of a chunk needs the relay of use j−1, which
// the runtime sends when the stage consuming use j−1 begins; W(j) folds into
// the accumulator W(j−1) of the same chunk shipped. Use 0 is injected before
// the schedule starts. Every program must run to completion.
func TestNoWaitCycle(t *testing.T) {
	type token struct {
		phase     byte
		mb, chunk int
	}
	forEachGrid(t, func(g grid) {
		stage := stageFamily[g.strategy]
		have := make(map[token]bool)
		needs := func(op Op) (token, bool) {
			switch {
			case !stage:
				return token{op.Phase, op.MB, op.Chunk}, op.MB > 0
			case op.Phase == 'F':
				return token{'F', op.MB, op.Chunk}, op.Chunk > 0
			case op.Phase == 'B':
				return token{'B', op.MB, op.Chunk}, op.Chunk < g.p-1
			}
			return token{}, false
		}
		gives := func(op Op) token {
			switch {
			case !stage:
				return token{op.Phase, op.MB + 1, op.Chunk}
			case op.Phase == 'F':
				return token{'F', op.MB, op.Chunk + 1}
			default:
				return token{op.Phase, op.MB, op.Chunk - 1}
			}
		}
		pc := make([]int, g.p)
		for progressed := true; progressed; {
			progressed = false
			for r, prog := range g.progs {
				for pc[r] < len(prog) {
					op := prog[pc[r]]
					if tok, wanted := needs(op); wanted && !have[tok] {
						break
					}
					have[gives(op)] = true
					pc[r]++
					progressed = true
				}
			}
		}
		for r, prog := range g.progs {
			if pc[r] != len(prog) {
				t.Fatalf("%v: rank %d waits forever at op %d (%v)", g, r, pc[r], prog[pc[r]])
			}
		}
	})
}

// spellPlan renders a weight plan: "+" before a pass that gathers its
// chunk, "*" after one that keeps it; W passes, which do neither, are left
// out.
func spellPlan(uses []Use) string {
	var parts []string
	for _, u := range uses {
		if u.Phase == 'W' {
			continue
		}
		s := u.Op.String()
		if u.Gather {
			s = "+" + s
		}
		if u.Keep {
			s += "*"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// TestBeltPlanProperties checks the keep rule's plan (keepPlan) of every
// weight-passing strategy at p ∈ 1…8 and n ∈ {p, 2p, 3p}: it is its rank's
// program, the same on every rank up to the microbatch offset; each (belt,
// chunk, round) segment is served off the belt on every rank or on none; a
// pass gathers exactly when its chunk is not held; no pass binds or keeps
// more than two copies, W passes bind none, and nothing is held after the
// iteration; and for p > 1 the turnaround chunk p−1's B passes all run on a
// kept copy. BeltPlan widens it per rank and drops early rows, which
// TestBeltPlanMaximal and TestEarlyRowsDropped check.
func TestBeltPlanProperties(t *testing.T) {
	type segment struct {
		phase        byte
		chunk, round int
	}
	forEachGrid(t, func(g grid) {
		if stageFamily[g.strategy] {
			return
		}
		plans := make([][]Use, g.p)
		for r := range plans {
			var err error
			if plans[r], err = keepPlan(g.strategy, r, g.p, g.n); err != nil {
				t.Fatalf("%v rank %d: %v", g, r, err)
			}
		}
		served := make(map[segment]bool)
		for r, plan := range plans {
			if len(plan) != len(g.progs[r]) {
				t.Fatalf("%v rank %d: %d uses for %d ops", g, r, len(plan), len(g.progs[r]))
			}
			held := make(map[int]bool)
			for i, u := range plan {
				if u.Op != g.progs[r][i] {
					t.Fatalf("%v rank %d: use %d is %v, the program runs %v", g, r, i, u.Op, g.progs[r][i])
				}
				r0 := plans[0][i]
				if r0.MB+r != u.MB || r0.Phase != u.Phase || r0.Chunk != u.Chunk || r0.Gather != u.Gather || r0.Keep != u.Keep {
					t.Fatalf("%v: rank %d's use %d %+v is not rank 0's %+v shifted", g, r, i, u, r0)
				}
				if u.Phase == 'W' {
					if u.Gather || u.Keep {
						t.Fatalf("%v rank %d: %v gathers or keeps weights", g, r, u.Op)
					}
					continue
				}
				seg := segment{u.Phase, u.Chunk, u.MB / g.p}
				if was, seen := served[seg]; seen && was != u.Gather {
					t.Fatalf("%v: segment %+v is belt-served on one rank and not on another", g, seg)
				}
				served[seg] = u.Gather
				if u.Gather == held[u.Chunk] {
					t.Fatalf("%v rank %d: %v gathers=%v with its chunk held=%v", g, r, u.Op, u.Gather, held[u.Chunk])
				}
				held[u.Chunk] = true
				if len(held) > 2 {
					t.Fatalf("%v rank %d: %v runs with %d copies bound or kept", g, r, u.Op, len(held))
				}
				if !u.Keep {
					delete(held, u.Chunk)
				}
				if g.p > 1 && u.Phase == 'B' && u.Chunk == g.p-1 && u.Gather {
					t.Fatalf("%v rank %d: %v takes the turnaround chunk off the backward belt", g, r, u.Op)
				}
			}
			if len(held) != 0 {
				t.Fatalf("%v rank %d: chunks %v still held after the iteration", g, r, held)
			}
		}
	})
	if _, err := BeltPlan("1f1b", 0, 2, 4, 1); err == nil {
		t.Error("BeltPlan accepted an activation-passing strategy")
	}
}

// TestBeltPlanTable pins wzb2 at p=4 by hand. Under the keep rule, at n=4
// the turnaround chunk 3 is kept from F to B, and B0/2 runs on F0/2's copy
// (only chunk 3 is used in between). At n=8 the steady state interleaves F
// of round 1 with B of round 0: F1/2 runs on B0/2's copy, B0/1 on F1/1's,
// and both turnarounds are kept — so forward-belt round 1 of chunk 2 and
// backward-belt round 0 of chunks 1 and 3 travel no belt. BeltPlan widens
// the rule where the two-copy budget has room, counting no slot for the
// chunk the rank holds (rank 0 chunk 1, rank 1 chunk 2): at n=8 rank 1
// keeps chunk 0 from F1/0 through F5/0 and B1/0 to B5/0, and rank 0's B0/0
// keeps its copy for B4/0. Rank 0 also keeps what the early rows into it would
// have brought: at n=4 F0/0's copy serves B0/0, the owner's injection; at
// n=8 it serves F4/0, rank 3's relay of its own use 3, and on to B0/0, and
// F0/2's serves B0/2.
func TestBeltPlanTable(t *testing.T) {
	for _, tc := range []struct {
		n       int
		rule    string
		rank    int
		widened string
	}{
		{4, "+F0/0 +F0/1 +F0/2* +F0/3* B0/3 B0/2 +B0/1 +B0/0",
			0, "+F0/0* +F0/1 +F0/2* +F0/3* B0/3 B0/2 +B0/1 B0/0"},
		{8, "+F0/0 +F0/1 +F0/2 +F0/3* +F4/0 B0/3 +F4/1* +B0/2* F4/2 B0/1 +F4/3* +B0/0 B4/3 +B4/2 +B4/1 +B4/0",
			0, "+F0/0* +F0/1 +F0/2* +F0/3* F4/0* B0/3 +F4/1* B0/2* F4/2 B0/1 +F4/3* B0/0* B4/3 +B4/2 +B4/1 B4/0"},
		{8, "+F1/0 +F1/1 +F1/2 +F1/3* +F5/0 B1/3 +F5/1* +B1/2* F5/2 B1/1 +F5/3* +B1/0 B5/3 +B5/2 +B5/1 +B5/0",
			1, "+F1/0* +F1/1 +F1/2 +F1/3* F5/0* B1/3 +F5/1* +B1/2* F5/2 B1/1 +F5/3* B1/0* B5/3 +B5/2 +B5/1 B5/0"},
	} {
		rule, err := keepPlan("wzb2", tc.rank, 4, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BeltPlan("wzb2", tc.rank, 4, tc.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := spellPlan(rule); got != tc.rule {
			t.Errorf("wzb2 p=4 n=%d rank %d keep rule:\n got %s\nwant %s", tc.n, tc.rank, got, tc.rule)
		}
		if got := spellPlan(plan); got != tc.widened {
			t.Errorf("wzb2 p=4 n=%d rank %d:\n got %s\nwant %s", tc.n, tc.rank, got, tc.widened)
		}
	}
}

// TestFSDPPlanTable pins the keep rule by hand on the smallest model it
// moves: the last two modules kept across each forward→backward turnaround,
// the first two across the microbatch boundary, nothing past the iteration.
func TestFSDPPlanTable(t *testing.T) {
	for _, tc := range []struct {
		modules, nLocal int
		want            string
	}{
		{3, 1, "+F0/0 +F0/1* +F0/2* B0/2 B0/1 +B0/0"},
		{3, 2, "+F0/0 +F0/1* +F0/2* B0/2 B0/1* +B0/0* F1/0 F1/1* +F1/2* B1/2 B1/1 +B1/0"},
		{4, 2, "+F0/0 +F0/1 +F0/2* +F0/3* B0/3 B0/2 +B0/1* +B0/0* F1/0 F1/1 +F1/2* +F1/3* B1/3 B1/2 +B1/1 +B1/0"},
		{2, 2, "+F0/0* +F0/1* B0/1* B0/0* F1/0* F1/1* B1/1 B1/0"},
	} {
		if got := spellPlan(FSDP(tc.modules, tc.nLocal)); got != tc.want {
			t.Errorf("FSDP(%d, %d):\n got %s\nwant %s", tc.modules, tc.nLocal, got, tc.want)
		}
	}
}

// TestFSDPHoldsAtMostTwo walks every plan for modules ∈ 3…8 and nLocal ∈ 1…4
// and checks the buffers it implies: each microbatch runs F over the modules
// ascending, then B+W descending; a pass gathers exactly when its module is
// not already held; no pass holds more than two gathered modules; nothing is
// held after the last pass; and the gathers number 2·modules·nLocal −
// 4·nLocal + 2.
func TestFSDPHoldsAtMostTwo(t *testing.T) {
	for modules := 3; modules <= 8; modules++ {
		for nLocal := 1; nLocal <= 4; nLocal++ {
			uses := FSDP(modules, nLocal)
			if len(uses) != 2*modules*nLocal {
				t.Fatalf("modules=%d nLocal=%d: %d passes", modules, nLocal, len(uses))
			}
			held := make(map[int]bool)
			gathers := 0
			for k, u := range uses {
				m, j := k/(2*modules), k%(2*modules)
				want := Op{Phase: 'F', MB: m, Chunk: j}
				if j >= modules {
					want = Op{Phase: 'B', MB: m, Chunk: 2*modules - 1 - j}
				}
				if u.Op != want {
					t.Fatalf("modules=%d nLocal=%d: pass %d is %v, want %v", modules, nLocal, k, u.Op, want)
				}
				if u.Gather == held[u.Chunk] {
					t.Fatalf("modules=%d nLocal=%d: %v gathers=%v with the module held=%v",
						modules, nLocal, u.Op, u.Gather, held[u.Chunk])
				}
				if u.Gather {
					gathers++
				}
				held[u.Chunk] = true
				if len(held) > 2 {
					t.Fatalf("modules=%d nLocal=%d: %v runs with %d gathered modules", modules, nLocal, u.Op, len(held))
				}
				if !u.Keep {
					delete(held, u.Chunk)
				}
			}
			if len(held) != 0 {
				t.Fatalf("modules=%d nLocal=%d: %v still held after the iteration", modules, nLocal, held)
			}
			if want := 2*modules*nLocal - 4*nLocal + 2; gathers != want {
				t.Errorf("modules=%d nLocal=%d: %d gathers, want %d", modules, nLocal, gathers, want)
			}
		}
	}
}

// TestHoldsOnePerGroup: on the flat belt (m = 1) every chunk has exactly
// one holder, its owner, so every rank holds one chunk; on the grouped belt
// (m ≥ 2) every group holds every chunk exactly once, so every rank holds
// p/m.
func TestHoldsOnePerGroup(t *testing.T) {
	for p := 1; p <= 8; p++ {
		for m := 1; m <= p; m++ {
			if p%m != 0 {
				continue
			}
			groupOf, perRank := func(r int) int { return r / m }, p/m
			if m == 1 {
				groupOf, perRank = func(int) int { return 0 }, 1
			}
			held := make([]int, p)
			for c := 0; c < p; c++ {
				holders := make(map[int]int)
				for r := 0; r < p; r++ {
					if Holds(r, c, p, m) {
						holders[groupOf(r)]++
						held[r]++
					}
				}
				for g := 0; g <= groupOf(p-1); g++ {
					if holders[g] != 1 {
						t.Errorf("p=%d m=%d: group %d holds chunk %d %d times", p, m, g, c, holders[g])
					}
				}
			}
			for r, n := range held {
				if n != perRank {
					t.Errorf("p=%d m=%d: rank %d holds %d chunks, want %d", p, m, r, n, perRank)
				}
			}
			if m == 1 {
				for c := 0; c < p; c++ {
					if !Holds((c-1+p)%p, c, p, m) {
						t.Errorf("p=%d: chunk %d's owner does not hold it", p, c)
					}
				}
			}
		}
	}
}

// TestGradChain: on every belt strategy's plan, chunk c's gradient chain
// lists, in use order, every use but its owner's and those of its deferred
// rounds — the rounds the backward belt does not ship, but never the last
// one. Two chain uses in a row sit one or two ranks apart — two where the
// chain bridges the owner — except at p=2, where they all run on the one
// other rank; and the messages it takes (hops between ranks plus the
// retire) are (p−1)·(n/p − d) for p ≥ 3, where d counts the deferred
// rounds, 1 at p=2 and 0 at p=1.
func TestGradChain(t *testing.T) {
	for _, s := range []string{"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2"} {
		for p := 1; p <= 8; p++ {
			for _, n := range []int{p, 2 * p, 3 * p} {
				ships, err := Shipped(s, p, n)
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < p; c++ {
					owner := (c - 1 + p) % p
					chain := GradChain(c, p, n, ships)
					deferred := 0
					for k := 0; k < n/p; k++ {
						if Deferred(ships, c, k) {
							deferred++
							if ships[1][c][k] || k == n/p-1 {
								t.Errorf("%s p=%d n=%d c=%d: round %d deferred", s, p, n, c, k)
							}
						}
					}
					if want := (p - 1) * (n/p - deferred); len(chain) != want {
						t.Errorf("%s p=%d n=%d c=%d: %d uses, want %d", s, p, n, c, len(chain), want)
					}
					msgs := 0
					for i, j := range chain {
						if j%p == owner {
							t.Errorf("%s p=%d n=%d c=%d: use %d runs on the owner", s, p, n, c, j)
						}
						if Deferred(ships, c, j/p) {
							t.Errorf("%s p=%d n=%d c=%d: use %d is in a deferred round", s, p, n, c, j)
						}
						if i == 0 {
							msgs++ // the retire
							continue
						}
						prev := chain[i-1]
						if j <= prev {
							t.Errorf("%s p=%d n=%d c=%d: use %d after use %d", s, p, n, c, j, prev)
						}
						if d := (j%p - prev%p + p) % p; d != 0 {
							msgs++
							if d > 2 || d == 2 && (prev+1)%p != owner {
								t.Errorf("%s p=%d n=%d c=%d: hop %d → %d is %d ranks", s, p, n, c, prev, j, d)
							}
						} else if p != 2 {
							t.Errorf("%s p=%d n=%d c=%d: uses %d and %d run on one rank", s, p, n, c, prev, j)
						}
					}
					want := (p - 1) * (n/p - deferred)
					switch p {
					case 1:
						want = 0
					case 2:
						want = 1
					}
					if msgs != want {
						t.Errorf("%s p=%d n=%d c=%d: %d gradient messages, want %d", s, p, n, c, msgs, want)
					}
				}
			}
		}
	}
	// wzb2 at the wide benchmark shape: the backward belt serves round 0 of
	// chunks 1 and 3 from kept copies, so their first round stays local.
	ships, err := Shipped("wzb2", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range []string{"[0 1 2 4 5 6]", "[5 6 7]", "[0 2 3 4 6 7]", "[4 5 7]"} {
		if got := fmt.Sprint(GradChain(c, 4, 8, ships)); got != want {
			t.Errorf("wzb2 GradChain(%d, 4, 8) = %s, want %s", c, got, want)
		}
	}
}

// TestGradSlots: on every belt strategy at p 1…8 and n ∈ {p, 2p, 3p, 4p}, a
// rank holds at most two gradient partials of chunks it does not own: none
// at n=p, where the one round is the last and the chain never stays on a
// rank; from two rounds up one at p=2, the other chunk's accumulator, and
// two from p=3, the two chunks whose rounds the backward belt serves from
// kept copies.
func TestGradSlots(t *testing.T) {
	for _, s := range []string{"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2"} {
		for p := 1; p <= 8; p++ {
			for r := 1; r <= 4; r++ {
				got, err := GradSlots(s, p, r*p)
				if err != nil {
					t.Fatal(err)
				}
				want := min(p-1, 2)
				if r == 1 {
					want = 0
				}
				if got != want {
					t.Errorf("%s p=%d n=%d: %d held gradient partials, want %d", s, p, r*p, got, want)
				}
			}
		}
	}
}

// TestWiringProperties: on every belt strategy at p 1…8, n ∈ {p, 2p, 3p},
// and every group size m that divides p (m = 1: the flat ring), Wiring's
// rows
//   - deliver every use a rank gathers off a belt, of a chunk it does not
//     hold, exactly once, and nothing else;
//   - never carry a chunk's weights into its holder (Holds), nor its
//     gradient into or out of its owner but for the retire;
//   - never send to the sender itself;
//   - name a sending pass of the right phase and chunk: the previous use's
//     for a relay, a holder's previous-round pass for a grouped injection,
//     the use's W pass for a gradient row;
//   - take (p−1)·(n/p − d) gradient messages per chunk, retire included,
//     where d counts its deferred rounds, 1 at p=2 and 0 at p=1, with one
//     retire for p ≥ 2;
//   - carry each chunk across each group boundary once, but into its
//     owner's group, and cache it at every group's holder;
//   - come exchange first, then by chunk, use and belt, gradient last.
func TestWiringProperties(t *testing.T) {
	for _, s := range []string{"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2"} {
		for p := 1; p <= 8; p++ {
			for _, n := range []int{p, 2 * p, 3 * p} {
				ships, err := Shipped(s, p, n)
				if err != nil {
					t.Fatal(err)
				}
				for m := 1; m <= p; m++ {
					if p%m != 0 {
						continue
					}
					plans := make([][]Use, p)
					for r := range plans {
						if plans[r], err = BeltPlan(s, r, p, n, m); err != nil {
							t.Fatal(err)
						}
					}
					checkWiring(t, s, p, n, m, plans, ships)
				}
			}
		}
	}
	if _, err := Wiring("wzb2", 6, 6, 4); err == nil {
		t.Error("groups of 4 tile a ring of 6")
	}
	if _, err := Wiring("1f1b", 2, 2, 1); err == nil {
		t.Error("1f1b has a wiring")
	}
}

func checkWiring(t *testing.T, s string, p, n, m int, plans [][]Use, ships [2][][]bool) {
	t.Helper()
	at := fmt.Sprintf("%s p=%d n=%d m=%d", s, p, n, m)
	rows, err := Wiring(s, p, n, m)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	groups, owner := p/m, func(c int) int { return (c - 1 + p) % p }
	delivered := make(map[Op]int)
	grads, retires := make([]int, p), make([]int, p)
	crossed := make(map[[2]int]int) // (chunk, group entered) → exchange hops
	cached := make(map[[2]int]bool) // (chunk, holder) → the exchange reached it
	stage, last := 0, [3]int{-1, -1, -1}
	for _, r := range rows {
		if r.Src == r.Dst || r.Src < 0 || r.Src >= p || r.Dst < 0 || r.Dst >= p {
			t.Fatalf("%s: row %+v sends from %d to %d", at, r, r.Src, r.Dst)
		}
		var sender Use
		if r.Pass >= 0 {
			sender = plans[r.Src][r.Pass]
		}
		// Exchange (stage 0), then weights by (chunk, use, belt) (stage 1),
		// then gradients by chunk (stage 2).
		rank := map[byte]int{'X': 0, 'F': 1, 'B': 1, 'D': 2, 'R': 2}[r.Kind]
		key := [3]int{r.Chunk, r.Use, int(r.Kind)}
		switch {
		case rank < stage:
			t.Fatalf("%s: row %+v after a later stage's", at, r)
		case rank == 1 && rank == stage && (key[0] < last[0] || key[0] == last[0] && (key[1] < last[1] || key[1] == last[1] && r.Kind == 'F')):
			t.Fatalf("%s: weight row %+v out of (chunk, use, belt) order", at, r)
		case rank == 2 && rank == stage && key[0] < last[0]:
			t.Fatalf("%s: gradient row %+v out of chunk order", at, r)
		}
		stage, last = rank, key
		switch r.Kind {
		case 'X':
			if m == 1 || r.Pass != -1 || r.Group || !Holds(r.Dst, r.Chunk, p, m) {
				t.Errorf("%s: exchange row %+v", at, r)
			}
			if r.Src/m != r.Dst/m {
				crossed[[2]int{r.Chunk, r.Dst / m}]++
			}
			cached[[2]int{r.Chunk, r.Dst}] = true
		case 'F', 'B':
			if r.Group != (m > 1) || Holds(r.Dst, r.Chunk, p, m) {
				t.Errorf("%s: weight row %+v into a holder or off its transport", at, r)
			}
			op := Op{Phase: r.Kind, MB: r.Use, Chunk: r.Chunk}
			delivered[op]++
			switch {
			case r.Injects(m) && r.Pass < 0:
				if r.Use/p != 0 || m == 1 && r.Src != owner(r.Chunk) || m > 1 && (r.Dst%m != 0 || !Holds(r.Src, r.Chunk, p, m)) {
					t.Errorf("%s: iteration-start injection %+v", at, r)
				}
			case r.Injects(m):
				if want := (Op{Phase: r.Kind, MB: r.Use - p + r.Src - r.Dst, Chunk: r.Chunk}); sender.Op != want || !Holds(r.Src, r.Chunk, p, m) {
					t.Errorf("%s: injection %+v sent by %v, want the holder's %v", at, r, sender.Op, want)
				}
			case sender.Op != Op{Phase: r.Kind, MB: r.Use - 1, Chunk: r.Chunk}:
				t.Errorf("%s: relay %+v sent by %v", at, r, sender.Op)
			}
		case 'D', 'R':
			grads[r.Chunk]++
			if r.Pass < 0 || sender.Phase != 'W' || sender.Chunk != r.Chunk || Holds(r.Src, r.Chunk, p, 1) {
				t.Errorf("%s: gradient row %+v sent by %v", at, r, sender.Op)
			}
			if r.Kind == 'R' {
				retires[r.Chunk]++
				if r.Dst != owner(r.Chunk) {
					t.Errorf("%s: retire %+v not into the owner", at, r)
				}
			} else if Holds(r.Dst, r.Chunk, p, 1) || Deferred(ships, r.Chunk, r.Use/p) {
				t.Errorf("%s: gradient row %+v into the owner or a deferred round", at, r)
			}
		default:
			t.Errorf("%s: row of kind %q", at, r.Kind)
		}
	}
	for rank, plan := range plans {
		for _, u := range plan {
			want := 0
			if u.Phase != 'W' && u.Gather && !Holds(rank, u.Chunk, p, m) {
				want = 1
			}
			if got := delivered[u.Op]; got != want {
				t.Errorf("%s: rank %d's %v delivered %d times, want %d", at, rank, u.Op, got, want)
			}
			delete(delivered, u.Op)
		}
	}
	if len(delivered) != 0 {
		t.Errorf("%s: rows deliver uses no plan runs: %v", at, delivered)
	}
	for c := 0; c < p; c++ {
		d := 0
		for k := 0; k < n/p; k++ {
			if Deferred(ships, c, k) {
				d++
			}
		}
		want, wantRetires := (p-1)*(n/p-d), 1
		switch p {
		case 1:
			want, wantRetires = 0, 0
		case 2:
			want = 1
		}
		if grads[c] != want || retires[c] != wantRetires {
			t.Errorf("%s: chunk %d takes %d gradient messages and %d retires, want %d and %d", at, c, grads[c], retires[c], want, wantRetires)
		}
		if m == 1 {
			continue
		}
		for g := 0; g < groups; g++ {
			want := 1
			if g == owner(c)/m {
				want = 0
			}
			if crossed[[2]int{c, g}] != want {
				t.Errorf("%s: chunk %d enters group %d %d times off the exchange, want %d", at, c, g, crossed[[2]int{c, g}], want)
			}
			if h := g*m + c%m; h != owner(c) && !cached[[2]int{c, h}] {
				t.Errorf("%s: the exchange never reaches chunk %d's holder %d", at, c, h)
			}
		}
	}
}

// earlyRows returns the weight rows of rows that their senders send before
// they take any row (BeltPlan), read off the rows alone.
func earlyRows(rows []Msg, plans [][]Use) []Msg {
	pass := make([]map[Op]int, len(plans))
	wait := make([]int, len(plans))
	for r, plan := range plans {
		pass[r] = make(map[Op]int, len(plan))
		for i, u := range plan {
			pass[r][u.Op] = i
		}
		wait[r] = len(plan)
	}
	for _, r := range rows {
		phase := r.Kind
		switch phase {
		case 'X', 'R':
			continue
		case 'D':
			phase = 'W'
		}
		wait[r.Dst] = min(wait[r.Dst], pass[r.Dst][Op{Phase: phase, MB: r.Use, Chunk: r.Chunk}])
	}
	var early []Msg
	for _, r := range rows {
		if (r.Kind == 'F' || r.Kind == 'B') && r.Pass < wait[r.Src] {
			early = append(early, r)
		}
	}
	return early
}

// peak returns the largest of counts, or 0.
func peak(counts []int) int {
	most := 0
	for _, c := range counts {
		most = max(most, c)
	}
	return most
}

// TestEarlyRowsDropped checks BeltPlan and Wiring against the keep rule they
// refine, on every weight-passing strategy at p 1…8, n ∈ {p, 2p, 3p} and
// every group size m that divides p (m = 1: the flat ring):
//   - every F and B use of every rank is served exactly once: by a row into
//     it, by a copy the chunk's previous use on the rank kept, or, with no
//     row, by the rank's own copy of a chunk it holds;
//   - no early row reaches a rank that has already run a use of its chunk,
//     and every row Wiring drops is early;
//   - the gradient rows (D, R) are the keep rule's, row for row;
//   - a rank no dropped row reaches has at most two copies of chunks it
//     does not hold in hand at every pass — bound, kept, and early rows
//     waiting in its mailbox (inHand, InHand's walk);
//   - a rank a dropped row reaches has at most as many in hand at its peak
//     as under the keep rule, whose wiring ships every early row: a kept
//     copy there stands in for a row that would have waited at least as
//     long.
func TestEarlyRowsDropped(t *testing.T) {
	for _, s := range []string{"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2"} {
		for p := 1; p <= 8; p++ {
			for _, n := range []int{p, 2 * p, 3 * p} {
				for m := 1; m <= p; m++ {
					if p%m == 0 {
						checkEarlyRows(t, s, p, n, m)
					}
				}
			}
		}
	}
	// At p=4 the widened plans take 10 weight rows fewer at n=8 (6 under
	// naive), 2 at n=4 and 16 on the grouped belt; rank 0 no longer takes B
	// c0 use 0 or B c2 use 0 (injections) nor F c0 use 4 (rank 3's relay of
	// its own use 3): F0/0 and F0/2 keep.
	for _, tc := range []struct {
		s          string
		n, m, rows int
	}{{"wzb2", 8, 1, 41}, {"wzb1", 8, 1, 41}, {"weipipe-interleave", 8, 1, 41}, {"wzb2", 4, 1, 27}, {"weipipe-naive", 8, 1, 41}, {"wzb2", 8, 2, 34}} {
		if rows, err := Wiring(tc.s, 4, tc.n, tc.m); err != nil || len(rows) != tc.rows {
			t.Errorf("%s p=4 n=%d m=%d: %d rows (%v), want %d", tc.s, tc.n, tc.m, len(rows), err, tc.rows)
		}
	}
}

func checkEarlyRows(t *testing.T, s string, p, n, m int) {
	t.Helper()
	at := fmt.Sprintf("%s p=%d n=%d m=%d", s, p, n, m)
	rows, err := Wiring(s, p, n, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wire(s, p, n, m, false)
	if err != nil {
		t.Fatal(err)
	}
	rule, err := wire(s, p, n, m, true)
	if err != nil {
		t.Fatal(err)
	}
	gradients := func(rows []Msg) []Msg {
		var grads []Msg
		for _, r := range rows {
			if r.Kind == 'D' || r.Kind == 'R' {
				grads = append(grads, r)
			}
		}
		return grads
	}
	if grads, ruleGrads := gradients(rows), gradients(rule.rows); !slices.Equal(grads, ruleGrads) {
		t.Errorf("%s: gradient rows %v, the keep rule's %v", at, grads, ruleGrads)
	}
	plans := make([][]Use, p)
	into := make([]map[Op]bool, p)
	for r := range plans {
		if plans[r], err = BeltPlan(s, r, p, n, m); err != nil {
			t.Fatal(err)
		}
		into[r] = make(map[Op]bool)
	}
	for _, r := range rows {
		if r.Kind == 'F' || r.Kind == 'B' {
			into[r.Dst][Op{Phase: r.Kind, MB: r.Use, Chunk: r.Chunk}] = true
		}
	}
	early := earlyRows(rows, plans)
	for _, r := range early {
		for _, u := range plans[r.Dst] {
			if u.Op == (Op{Phase: r.Kind, MB: r.Use, Chunk: r.Chunk}) {
				break
			}
			if u.Phase != 'W' && u.Chunk == r.Chunk {
				t.Errorf("%s: early row %+v reaches rank %d after its %v", at, r, r.Dst, u.Op)
				break
			}
		}
	}
	// The wiring before the drop: Wiring's rows and the dropped, in table order.
	undropped := append(slices.Clone(rows), b.dropped...)
	slices.SortStableFunc(undropped, func(x, y Msg) int { return tableRank(x) - tableRank(y) })
	reached := make(map[int]bool)
	for _, r := range b.dropped {
		reached[r.Dst] = true
		if !slices.Contains(earlyRows(undropped, plans), r) {
			t.Errorf("%s: dropped row %+v is not early", at, r)
		}
	}
	for rank, plan := range plans {
		copyKept := make(map[int]bool)
		for i, u := range plan {
			if u.Phase == 'W' {
				continue
			}
			served := 0
			if into[rank][u.Op] {
				served++
			}
			if copyKept[u.Chunk] {
				served++
			}
			if !into[rank][u.Op] && u.Gather && Holds(rank, u.Chunk, p, m) {
				served++
			}
			if served != 1 || u.Gather == copyKept[u.Chunk] {
				t.Errorf("%s: rank %d's %v (pass %d) served %d times, gathers=%v", at, rank, u.Op, i, served, u.Gather)
			}
			copyKept[u.Chunk] = u.Keep
		}
	}
	got, want := inHand(plans, early, p, m), inHand(rule.plans, earlyRows(rule.rows, rule.plans), p, m)
	for rank, counts := range got {
		switch most := peak(counts); {
		case reached[rank] && most > peak(want[rank]):
			t.Errorf("%s: rank %d, which a dropped row reaches, has %d copies in hand at most, %d under the keep rule", at, rank, most, peak(want[rank]))
		case !reached[rank] && most > 2:
			t.Errorf("%s: rank %d has %d copies in hand at %v", at, rank, most, plans[rank][slices.Index(counts, most)].Op)
		}
	}
	if exported, err := InHand(s, p, n, m); err != nil || !slices.EqualFunc(exported, got, slices.Equal) {
		t.Errorf("%s: InHand %v (%v), the walk over Wiring's early rows %v", at, exported, err, got)
	}
}

// TestBeltPlanMaximal: on every weight-passing strategy at p 1…8, n ∈ {p,
// 2p, 3p} and every group size m that divides p, every rank's BeltPlan
// keeps every keep of the keep rule, and no single further keep fits the
// two-copy budget: keeping any other F or B copy of a chunk the rank does
// not hold until the chunk's next use would leave some F or B pass in
// between with more than two such copies bound or kept.
func TestBeltPlanMaximal(t *testing.T) {
	for _, s := range []string{"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2"} {
		for p := 1; p <= 8; p++ {
			for _, n := range []int{p, 2 * p, 3 * p} {
				for m := 1; m <= p; m++ {
					if p%m != 0 {
						continue
					}
					for rank := 0; rank < p; rank++ {
						checkMaximal(t, s, p, n, m, rank)
					}
				}
			}
		}
	}
}

func checkMaximal(t *testing.T, s string, p, n, m, rank int) {
	t.Helper()
	at := fmt.Sprintf("%s p=%d n=%d m=%d rank %d", s, p, n, m, rank)
	rule, err := keepPlan(s, rank, p, n)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BeltPlan(s, rank, p, n, m)
	if err != nil {
		t.Fatal(err)
	}
	held := func(c int) bool { return Holds(rank, c, p, m) }
	// copies returns, per pass, the unheld chunks bound or kept over it.
	copies := func() []int {
		counts := make([]int, len(plan))
		kept := make(map[int]bool)
		for i, u := range plan {
			if u.Phase == 'W' {
				continue
			}
			delete(kept, u.Chunk)
			counts[i] = len(kept)
			if !held(u.Chunk) {
				counts[i]++
				if u.Keep {
					kept[u.Chunk] = true
				}
			}
		}
		return counts
	}
	counts := copies()
	for i, u := range plan {
		if rule[i].Keep && !u.Keep {
			t.Errorf("%s: %v drops the copy the keep rule keeps", at, u.Op)
		}
		if u.Phase == 'W' || u.Keep || held(u.Chunk) {
			continue
		}
		next := slices.IndexFunc(plan[i+1:], func(v Use) bool { return v.Phase != 'W' && v.Chunk == u.Chunk })
		if next < 0 {
			continue
		}
		fits := true
		for _, c := range counts[i+1 : i+1+next] {
			fits = fits && c < 2
		}
		if fits {
			t.Errorf("%s: %v could keep its copy for %v within the budget", at, u.Op, plan[i+1+next].Op)
		}
	}
}

// tableRank orders rows as Wiring lists them: exchange, then weights by
// chunk, use and belt, then gradients by chunk, each in its build order.
func tableRank(r Msg) int {
	switch r.Kind {
	case 'X':
		return 0
	case 'F', 'B':
		kind := 0
		if r.Kind == 'B' {
			kind = 1
		}
		return 1 + (r.Chunk<<40 | r.Use<<1 | kind)
	}
	return 1 << 62
}
