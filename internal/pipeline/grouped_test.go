package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
)

// The grouped belt's contract: wzb2g changes *where* weight chunks travel
// (cached once per group, recirculated on the fast fabric) but never what
// any rank computes — so for every lossless configuration it must land on
// bit-identical losses and weights to flat WZB2, while moving strictly
// fewer bytes between groups.

// groupedCfg is a ring-divisible model for p-rank grouped runs.
func groupedCfg(p int) model.Config {
	return model.Config{Vocab: 13, Hidden: 8, Layers: p, Heads: 2, MaxSeq: 6, Seed: 42}
}

func groupedBatches(iters, n int) func(int) []data.Batch {
	all := make([][]data.Batch, iters)
	for i := range all {
		all[i] = data.Microbatches(uint64(100+i), n, 2, 13, 6)
	}
	return func(i int) []data.Batch { return all[i] }
}

// TestGroupedBitIdenticalToFlat sweeps ring size × group size × wire
// variants: plain, the fabric where relay and compute overlap on one shared
// buffer (TCP: the cached shard goes to the socket as it lies while the
// holder computes out of it; in process every hop is a copy), bf16 wire,
// integrity seals, and all of them together. Every cell must reproduce flat
// WZB2 on the same fabric exactly.
func TestGroupedBitIdenticalToFlat(t *testing.T) {
	const iters, n2 = 2, 2 // n2: microbatch rounds (n = n2*p per iteration)
	variants := []struct {
		name      string
		tcp       bool
		codec     comm.CodecFunc
		integrity bool
	}{
		{"plain", false, nil, false},
		{"overlap", true, nil, false},
		{"bf16", false, comm.BeltBF16, false},
		{"integrity", false, nil, true},
		{"all", true, comm.BeltBF16, true},
	}
	for _, p := range []int{4, 8} {
		for _, gs := range []int{0, 2, 4} {
			if gs > p {
				continue
			}
			cfg := groupedCfg(p)
			n := n2 * p
			for _, v := range variants {
				p, gs, v := p, gs, v
				t.Run(fmt.Sprintf("p%d_gs%d_%s", p, gs, v.name), func(t *testing.T) {
					t.Parallel()
					run := func(s Strategy, opts Options) ([]float64, []float32) {
						if v.tcp {
							return runTCP(t, s, p, cfg, opts, iters, groupedBatches(iters, n), v.codec)
						}
						res := runCodec(t, s, p, cfg, opts, iters, groupedBatches(iters, n), v.codec)
						return res.Losses, res.Weights
					}
					flatOpts := eqOpts()
					flatOpts.Integrity = v.integrity
					refLosses, refWeights := run(StrategyWZB2, flatOpts)
					opts := flatOpts
					opts.GroupSize = gs
					losses, weights := run(StrategyWZB2G, opts)
					bitIdentical(t, "wzb2g", losses, refLosses, weights, refWeights)
				})
			}
		}
	}
}

// TestGroupedIndivisibleFallsBackFlat: a group size that does not divide
// the ring (the elastic-shrink case) must degrade to the flat belt, not
// fail — and still match flat WZB2 exactly.
func TestGroupedIndivisibleFallsBackFlat(t *testing.T) {
	const p, iters, n = 4, 2, 8
	cfg := groupedCfg(p)
	ref, err := RunCluster(StrategyWZB2, p, cfg, eqOpts(), iters, groupedBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	opts := eqOpts()
	opts.GroupSize = 3 // does not divide p=4
	got, err := RunCluster(StrategyWZB2G, p, cfg, opts, iters, groupedBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "wzb2g gs=3 fallback", got.Losses, ref.Losses, got.Weights, ref.Weights)
}

// TestNormalizeGroupSize: a group size is kept when it tiles the ring and
// every group's salt, groupedSaltBase+g for g < p/gs, fits the tag's salt
// field (≤ 255); otherwise the ring runs the flat belt (1). Size 0 picks
// 4-rank groups from 8 ranks up, else pairs, else flat.
func TestNormalizeGroupSize(t *testing.T) {
	for _, tc := range []struct{ gs, p, want int }{
		{2, 112, 2}, // 56 groups: the last salt is 255
		{2, 114, 1}, // 57 groups: the last salt would be 256
		{4, 224, 4},
		{3, 4, 1},
		{1, 4, 1},
		{2, 1, 1},
		{0, 8, 4},
		{0, 6, 2},
		{0, 4, 2},
		{0, 3, 1},
	} {
		if got := normalizeGroupSize(tc.gs, tc.p); got != tc.want {
			t.Errorf("normalizeGroupSize(%d, %d) = %d, want %d", tc.gs, tc.p, got, tc.want)
		}
	}
}

// TestGroupedCutsInterGroupBytes is the measured half of the tentpole
// claim at test scale: on an 8-rank ring in groups of 2, the grouped belt
// must move strictly fewer bytes (and messages) between groups than flat
// WZB2, as counted by the transports' per-link-tier meters.
func TestGroupedCutsInterGroupBytes(t *testing.T) {
	const p, gs, iters, n = 8, 2, 2, 16
	cfg := groupedCfg(p)
	opts := eqOpts()
	opts.GroupSize = gs // arms the tier meters for both strategies
	flat, err := RunCluster(StrategyWZB2, p, cfg, opts, iters, groupedBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := RunCluster(StrategyWZB2G, p, cfg, opts, iters, groupedBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "wzb2g traffic run", grouped.Losses, flat.Losses, grouped.Weights, flat.Weights)

	fBytes, fMsgs := flat.TotalComm().InterGroupTraffic()
	gBytes, gMsgs := grouped.TotalComm().InterGroupTraffic()
	if fBytes == 0 {
		t.Fatal("flat run recorded no inter-group bytes; tier meters unarmed?")
	}
	if gBytes >= fBytes {
		t.Errorf("grouped inter-group bytes %d not below flat %d", gBytes, fBytes)
	}
	if gMsgs >= fMsgs {
		t.Errorf("grouped inter-group msgs %d not below flat %d", gMsgs, fMsgs)
	}
	if iBytes, _ := grouped.TotalComm().IntraGroupTraffic(); iBytes == 0 {
		t.Error("grouped run recorded no intra-group bytes")
	}
}

// TestGroupedChaosTCPEquivalence: the grouped belt over real TCP with
// frame-level chaos (drop/dup/reorder/corrupt/delay) — shard exchange on
// the chaotic parent transport, belt circulation on sub-ring groups, every
// injection a retransmittable view of the shared cache — must still
// reproduce the clean in-process flat trajectory bit for bit.
func TestGroupedChaosTCPEquivalence(t *testing.T) {
	const p, gs, iters, n = 4, 2, 2, 8
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	trs := dialMesh(t, p, chaosTCPOpts())
	opts := eqOpts()
	opts.GroupSize = gs
	losses, weights := runOnTransports(t, trs, StrategyWZB2G, opts, iters, n)
	bitIdentical(t, "wzb2g chaos TCP", losses, ref.Losses, weights, ref.Weights)

	// The run must actually have exercised the reliability machinery.
	total := comm.NewStats()
	for _, tr := range trs {
		total.Add(tr.CommStats())
	}
	f := total.TotalFaults()
	if f.Retransmits+f.DupFrames+f.CorruptFrames == 0 {
		t.Error("chaos run recorded no transport faults; injection was a no-op")
	}
	for _, tr := range trs {
		tr.Close()
	}
	waitPipelineGoroutines(t, base)
}
