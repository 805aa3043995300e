package order

import (
	"fmt"
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
