package schedule

import (
	"fmt"
	"strings"
	"testing"

	"weipipe/internal/cluster"
	"weipipe/internal/sim"
)

// The simulator's P2P link models mirror the runtime transport's modes:
// frame must compile to the exact seed schedule, batched must cut envelope
// sends without touching bytes or dependencies (so modelled time never
// regresses), duplex must split belts onto per-link lanes that the traffic
// accounting still classifies by link, and auto must mix the two by
// topology tier.

// p2pSpec builds a spec for the given strategy scale, topology, and mode.
func p2pSpec(p int, top cluster.Topology, mode string) Spec {
	w := smallWorkload(p)
	return Spec{W: w, GPU: cluster.A800(), Top: top, P2PMode: mode}
}

// taskFingerprint renders the structural identity of a task list.
func taskFingerprint(tasks []sim.Task) []string {
	out := make([]string, len(tasks))
	for i, t := range tasks {
		out[i] = fmt.Sprintf("%s|%d|%.9g|%s|%s|%.9g|%v|%v", t.Resource, t.Worker, t.Dur, t.Kind, t.Label, t.Bytes, t.Coalesced, t.Deps)
	}
	return out
}

// TestP2PModeFrameIsByteIdenticalToDefault: naming the frame mode must
// compile through the exact same code path as the seed's empty-mode spec —
// task for task, dependency for dependency.
func TestP2PModeFrameIsByteIdenticalToDefault(t *testing.T) {
	cases := []struct {
		strategy string
		top      cluster.Topology
	}{
		{"wzb2", cluster.NVLinkSingle(8)},
		{"wzb2g", cluster.NVLinkEthernet(8, 4)},
	}
	for _, tc := range cases {
		seed, err := Build(tc.strategy, p2pSpec(8, tc.top, ""))
		if err != nil {
			t.Fatalf("%s seed: %v", tc.strategy, err)
		}
		framed, err := Build(tc.strategy, p2pSpec(8, tc.top, "frame"))
		if err != nil {
			t.Fatalf("%s frame: %v", tc.strategy, err)
		}
		a, b := taskFingerprint(seed), taskFingerprint(framed)
		if len(a) != len(b) {
			t.Fatalf("%s: frame mode changed task count: %d vs %d", tc.strategy, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s task %d diverged:\n  seed:  %s\n  frame: %s", tc.strategy, i, a[i], b[i])
			}
		}
	}
}

// TestP2PModeBatchedCutsSendsKeepsBytes: the batched link model must emit
// strictly fewer envelope sends for identical bytes, and — because rider
// dependencies are untouched — never a longer makespan.
func TestP2PModeBatchedCutsSendsKeepsBytes(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		top      cluster.Topology
	}{
		{"wzb2", cluster.NVLinkEthernet(8, 4)},
		{"wzb2g", cluster.NVLinkEthernet(8, 4)},
	} {
		frameTasks, frame, err := BuildTraffic(tc.strategy, p2pSpec(8, tc.top, "frame"))
		if err != nil {
			t.Fatal(err)
		}
		batchedTasks, batched, err := BuildTraffic(tc.strategy, p2pSpec(8, tc.top, "batched"))
		if err != nil {
			t.Fatal(err)
		}
		fSends, bSends := frame.InterSends+frame.IntraSends, batched.InterSends+batched.IntraSends
		if bSends >= fSends {
			t.Errorf("%s: batched sends %d not below frame %d", tc.strategy, bSends, fSends)
		}
		if frame.InterBytes+frame.IntraBytes != batched.InterBytes+batched.IntraBytes {
			t.Errorf("%s: batched changed wire bytes: %.0f vs %.0f", tc.strategy,
				batched.InterBytes+batched.IntraBytes, frame.InterBytes+frame.IntraBytes)
		}
		coalesced := 0
		for _, task := range batchedTasks {
			if task.Coalesced {
				coalesced++
				if task.Kind != "comm" || task.Resource[0] != 'l' {
					t.Fatalf("%s: coalesced non-link task %s (%s)", tc.strategy, task.Label, task.Resource)
				}
			}
		}
		if coalesced != fSends-bSends {
			t.Errorf("%s: %d coalesced riders but send count dropped by %d", tc.strategy, coalesced, fSends-bSends)
		}
		fRes, err := sim.Run(frameTasks)
		if err != nil {
			t.Fatal(err)
		}
		bRes, err := sim.Run(batchedTasks)
		if err != nil {
			t.Fatal(err)
		}
		if bRes.Makespan > fRes.Makespan*(1+1e-9) {
			t.Errorf("%s: batched makespan %.6g regressed past frame %.6g", tc.strategy, bRes.Makespan, fRes.Makespan)
		}
	}
}

// TestP2PModeDuplexLanesClassifyByLink: duplex mode moves the backward
// belt and gradient flushes onto dedicated lanes ("l<i>b"/"l<i>d"); the
// traffic accounting must still attribute lane bytes to the underlying
// link's tier, leaving totals exactly at the frame baseline.
func TestP2PModeDuplexLanesClassifyByLink(t *testing.T) {
	top := cluster.NVLinkEthernet(8, 4)
	_, frame, err := BuildTraffic("wzb2", p2pSpec(8, top, "frame"))
	if err != nil {
		t.Fatal(err)
	}
	tasks, duplex, err := BuildTraffic("wzb2", p2pSpec(8, top, "duplex"))
	if err != nil {
		t.Fatal(err)
	}
	if frame.InterBytes != duplex.InterBytes || frame.IntraBytes != duplex.IntraBytes {
		t.Errorf("duplex re-tiered bytes: inter %.0f vs %.0f, intra %.0f vs %.0f",
			duplex.InterBytes, frame.InterBytes, duplex.IntraBytes, frame.IntraBytes)
	}
	if frame.InterSends+frame.IntraSends != duplex.InterSends+duplex.IntraSends {
		t.Errorf("duplex changed send count: %d vs %d",
			duplex.InterSends+duplex.IntraSends, frame.InterSends+frame.IntraSends)
	}
	lanes := map[byte]bool{}
	for _, task := range tasks {
		if len(task.Resource) >= 3 && task.Resource[0] == 'l' {
			lane := task.Resource[len(task.Resource)-1]
			if lane == 'b' || lane == 'd' {
				lanes[lane] = true
			}
		}
	}
	if !lanes['b'] || !lanes['d'] {
		t.Errorf("duplex schedule has no lane tasks (b=%v d=%v)", lanes['b'], lanes['d'])
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatalf("duplex schedule does not run: %v", err)
	}
}

// TestP2PModeAutoMixesByTier: on a hierarchical topology the auto policy
// batches the slow boundary links and duplexes the fast intra-group ones —
// so its schedule must contain both coalesced riders and lane tasks, with
// total bytes still at the frame baseline.
func TestP2PModeAutoMixesByTier(t *testing.T) {
	top := cluster.NVLinkEthernet(8, 4)
	_, frame, err := BuildTraffic("wzb2", p2pSpec(8, top, "frame"))
	if err != nil {
		t.Fatal(err)
	}
	tasks, auto, err := BuildTraffic("wzb2", p2pSpec(8, top, "auto"))
	if err != nil {
		t.Fatal(err)
	}
	if frame.InterBytes+frame.IntraBytes != auto.InterBytes+auto.IntraBytes {
		t.Errorf("auto changed wire bytes: %.0f vs %.0f",
			auto.InterBytes+auto.IntraBytes, frame.InterBytes+frame.IntraBytes)
	}
	var coalesced, laned bool
	for _, task := range tasks {
		if task.Coalesced {
			coalesced = true
		}
		if task.Resource[0] == 'l' && (strings.HasSuffix(task.Resource, "b") || strings.HasSuffix(task.Resource, "d")) {
			laned = true
		}
	}
	if !coalesced || !laned {
		t.Errorf("auto did not mix models (batched riders=%v, duplex lanes=%v)", coalesced, laned)
	}
	if auto.InterSends >= frame.InterSends {
		t.Errorf("auto did not batch the boundary links: %d inter sends vs frame %d", auto.InterSends, frame.InterSends)
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatalf("auto schedule does not run: %v", err)
	}
}

// TestP2PModeInvalidRejected: an unknown mode must fail the build, not
// silently fall back to frame.
func TestP2PModeInvalidRejected(t *testing.T) {
	if _, err := Build("wzb2", p2pSpec(8, cluster.NVLinkSingle(8), "bogus")); err == nil {
		t.Fatal("unknown p2p mode accepted")
	}
}
