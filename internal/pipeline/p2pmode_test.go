package pipeline

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"weipipe/internal/comm"
)

// The P2P mode matrix: every link packaging mode — frame, batched burst
// envelopes, duplex ctl lanes, the auto controller — must reproduce the
// frame baseline's training trajectory bit for bit, over the in-process
// fabric and over chaos-injected TCP, including when the auto controller
// re-decides a link's mode in the middle of a run. CI shards this suite by
// mode via WEIPIPE_P2P_MODE; WEIPIPE_MODE_OUT collects JSONL run
// descriptors for the failure artifact.

var p2pTestModes = []comm.P2PMode{comm.P2PFrame, comm.P2PBatched, comm.P2PDuplex, comm.P2PAuto}

// skipUnlessMode applies the CI matrix shard filter. The frame baseline is
// never skipped: every shard needs it as its comparison oracle.
func skipUnlessMode(t *testing.T, mode comm.P2PMode) {
	t.Helper()
	want := os.Getenv("WEIPIPE_P2P_MODE")
	if want != "" && mode != comm.P2PFrame && mode.String() != want {
		t.Skipf("WEIPIPE_P2P_MODE=%s shards out mode %s", want, mode)
	}
}

var modeOutMu sync.Mutex

// logModeRun appends one JSONL run descriptor to WEIPIPE_MODE_OUT.
func logModeRun(t *testing.T, desc map[string]any) {
	t.Helper()
	path := os.Getenv("WEIPIPE_MODE_OUT")
	if path == "" {
		return
	}
	modeOutMu.Lock()
	defer modeOutMu.Unlock()
	if dir := filepath.Dir(path); dir != "." {
		os.MkdirAll(dir, 0o755)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("mode-out: %v", err)
		return
	}
	defer f.Close()
	desc["test"] = t.Name()
	json.NewEncoder(f).Encode(desc)
}

// TestP2PModeEquivalenceInproc: every mode × {flat, grouped} on the
// in-process fabric must match the frame baseline exactly. The in-process
// fabric has no wire, so this pins the mode plumbing (options → transport
// meters → runners) rather than the packaging itself.
func TestP2PModeEquivalenceInproc(t *testing.T) {
	const p, gs, iters, n = 4, 2, 2, 8
	for _, s := range []Strategy{StrategyWZB2, StrategyWZB2G} {
		var ref *ClusterResult
		for _, mode := range p2pTestModes {
			mode := mode
			t.Run(string(s)+"_"+mode.String(), func(t *testing.T) {
				skipUnlessMode(t, mode)
				opts := eqOpts()
				opts.P2PMode = mode
				if s == StrategyWZB2G {
					opts.GroupSize = gs
				}
				res, err := RunCluster(s, p, eqCfg(), opts, iters, eqBatches(iters, n))
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res // frame runs first: the shard's oracle
					return
				}
				bitIdentical(t, string(s)+" "+mode.String(), res.Losses, ref.Losses, res.Weights, ref.Weights)
				logModeRun(t, map[string]any{
					"fabric": "inproc", "strategy": string(s), "mode": mode.String(),
					"bit_identical": true,
				})
			})
		}
	}
}

// chaosTCPOpts is the shared chaotic failure model of the TCP matrix legs.
func chaosTCPOpts(mode comm.P2PMode, groupSize int) comm.TCPOptions {
	return comm.TCPOptions{
		DialTimeout:       10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		PeerDeadTimeout:   2 * time.Second,
		RetransmitTimeout: 40 * time.Millisecond,
		ReconnectBackoff:  5 * time.Millisecond,
		P2PMode:           mode,
		GroupSize:         groupSize,
		Chaos: &comm.ChaosConfig{
			Seed:      4242,
			Drop:      0.05,
			Dup:       0.05,
			Reorder:   0.05,
			Corrupt:   0.02,
			DelayProb: 0.05,
			MaxDelay:  2 * time.Millisecond,
		},
	}
}

// TestP2PModeEquivalenceChaosTCP: the full matrix over real TCP with
// frame-level chaos — every mode's grouped run must reproduce
// the clean in-process flat frame trajectory bit for bit, with the
// reliability machinery demonstrably exercised and (for the packaging
// modes) the mode demonstrably on the wire.
func TestP2PModeEquivalenceChaosTCP(t *testing.T) {
	const p, gs, iters, n = 4, 2, 2, 8
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range p2pTestModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			skipUnlessMode(t, mode)
			base := runtime.NumGoroutine()
			trs := dialMesh(t, p, chaosTCPOpts(mode, gs))

			opts := eqOpts()
			opts.GroupSize = gs
			opts.P2PMode = mode
			losses, weights := runOnTransports(t, trs, StrategyWZB2G, opts, iters, n)
			bitIdentical(t, "wzb2g chaos TCP "+mode.String(), losses, ref.Losses, weights, ref.Weights)

			total := comm.NewStats()
			for _, tr := range trs {
				total.Add(tr.(comm.Meter).CommStats())
			}
			f := total.TotalFaults()
			if f.Retransmits+f.DupFrames+f.CorruptFrames == 0 {
				t.Error("chaos run recorded no transport faults; injection was a no-op")
			}
			envelopes, _ := total.Bursts()
			if mode == comm.P2PBatched && envelopes == 0 {
				t.Error("batched run put no burst envelopes on the wire")
			}
			if mode == comm.P2PAuto && envelopes == 0 && total.CtlLaneFrames() == 0 {
				t.Error("auto run exercised neither batched nor duplex packaging")
			}
			logModeRun(t, map[string]any{
				"fabric": "tcp+chaos", "strategy": "wzb2g", "mode": mode.String(),
				"bit_identical": true, "retransmits": f.Retransmits,
				"bursts": envelopes, "ctl_lane_frames": total.CtlLaneFrames(),
			})
			for _, tr := range trs {
				tr.Close()
			}
			waitPipelineGoroutines(t, base)
		})
	}
}

// TestP2PModeMidRunAutoRedecision: with the RTT threshold forced to
// effectively zero, the auto controller re-decides the duplex-seeded
// loopback links to batched *during* training — and the trajectory must
// still match the clean frame baseline bit for bit. This is the mid-run
// switch-safety claim: a mode change affects wire layout only.
func TestP2PModeMidRunAutoRedecision(t *testing.T) {
	skipUnlessMode(t, comm.P2PAuto)
	const p, iters, n = 4, 2, 8
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	tcpOpts := chaosTCPOpts(comm.P2PAuto, 0) // flat: every link seeds duplex
	tcpOpts.AutoRTTSec = 1e-12               // any measured RTT forces batched
	trs := dialMesh(t, p, tcpOpts)

	opts := eqOpts()
	opts.P2PMode = comm.P2PAuto
	losses, weights := runOnTransports(t, trs, StrategyWZB2, opts, iters, n)
	bitIdentical(t, "wzb2 mid-run auto re-decision", losses, ref.Losses, weights, ref.Weights)

	total := comm.NewStats()
	for _, tr := range trs {
		total.Add(tr.(comm.Meter).CommStats())
	}
	if total.P2PModeSwitches() == 0 {
		t.Error("forcing threshold produced no mid-run mode switch")
	}
	envelopes, _ := total.Bursts()
	if envelopes == 0 {
		t.Error("re-decided links sent no burst envelopes")
	}
	logModeRun(t, map[string]any{
		"fabric": "tcp+chaos", "strategy": "wzb2", "mode": "auto-redecision",
		"bit_identical": true, "switches": total.P2PModeSwitches(), "bursts": envelopes,
	})
	for _, tr := range trs {
		tr.Close()
	}
	waitPipelineGoroutines(t, base)
}
