package bench

import (
	"fmt"
	"slices"
	"strings"

	"weipipe/internal/model"
	"weipipe/internal/order"
)

// wiringShape is one model shape of the wiring table.
type wiringShape struct {
	label   string
	h, s, n int
}

// Wiring tabulates one iteration's messages of every weight-passing
// strategy at the benchmark's shapes (benchmark/workloads.go: 4 ranks,
// vocabulary 256, 4 heads, 4 layers, G=1): the long and wide workloads and
// their smoke-test sizes. Each row counts order.Wiring's rows by kind and the
// fp32 bytes they carry per token, from the runtime's chunk sizes, and the
// most weight copies of chunks it does not hold that any rank has in hand at
// any pass — bound, kept, or waiting in its mailbox as an early row
// (order.InHand); wzb2g runs in groups of 2, the default at 4 ranks. The
// runtime sends exactly these rows (TestSimulatorRelaysMatchRuntime), so a
// change to how weights or gradients travel shows here as a diff.
func Wiring() (string, error) {
	const p, m2 = 4, 2
	shapes := []wiringShape{
		{"long", 64, 512, 4},
		{"wide", 256, 8, 8},
		{"long smoke", 16, 32, 4},
		{"wide smoke", 32, 8, 8},
	}
	var b strings.Builder
	b.WriteString("== wiring: Rows per iteration and belt bytes per token at the benchmark's shapes ==\n")
	b.WriteString("P=4, vocabulary 256, 4 heads, 4 layers, G=1; wzb2g in groups of 2. Bytes are the rows' fp32 payloads over N·G·S tokens;\n")
	b.WriteString("in hand: the most copies of chunks it does not hold that a rank has bound, kept or in its mailbox at a pass.\n")
	fmt.Fprintf(&b, "%-28s %-18s %3s %3s %3s %3s %3s %4s %12s %7s\n", "shape", "strategy", "F", "B", "X", "D", "R", "rows", "belt B/tok", "in hand")
	for _, sh := range shapes {
		mdl := model.BuildShells(model.Config{Vocab: 256, Hidden: sh.h, Layers: 4, Heads: 4, MaxSeq: sh.s, Seed: 1})
		sizes := make([]int, p)
		for c, rg := range mdl.Partition(p) {
			sizes[c] = mdl.ChunkSize(rg[0], rg[1])
		}
		label := fmt.Sprintf("%s H=%d S=%d N=%d", sh.label, sh.h, sh.s, sh.n)
		for _, s := range []string{"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2", "wzb2g"} {
			strategy, m := s, 1
			if s == "wzb2g" {
				strategy, m = "wzb2", m2
			}
			rows, err := order.Wiring(strategy, p, sh.n, m)
			if err != nil {
				return "", err
			}
			inHand, err := order.InHand(strategy, p, sh.n, m)
			if err != nil {
				return "", err
			}
			most := 0
			for _, counts := range inHand {
				most = max(most, slices.Max(counts))
			}
			kinds := make(map[byte]int)
			bytes := 0
			for _, r := range rows {
				kinds[r.Kind]++
				bytes += 4 * sizes[r.Chunk]
			}
			fmt.Fprintf(&b, "%-28s %-18s %3d %3d %3d %3d %3d %4d %12.3f %7d\n", label, s,
				kinds['F'], kinds['B'], kinds['X'], kinds['D'], kinds['R'], len(rows), float64(bytes)/float64(sh.n*sh.s), most)
		}
	}
	return b.String(), nil
}
