// Package cluster models the hardware the paper evaluated on: A800 GPUs
// arranged in rings whose links are NVLink inside a server, and PCIe or
// Ethernet between servers. The performance simulator consumes these
// descriptions; nothing here executes.
package cluster

import "fmt"

// GPUSpec describes one accelerator.
type GPUSpec struct {
	Name string
	// PeakFLOPS is the fp16/bf16 tensor-core peak in FLOP/s.
	PeakFLOPS float64
	// MFU is the fraction of peak a well-tuned training kernel sustains;
	// throughput models divide by PeakFLOPS·MFU.
	MFU float64
	// MemBytes is the HBM capacity used for OOM detection.
	MemBytes float64
}

// A800 returns the paper's GPU: 312 TFLOPS fp16, 80 GB HBM, and NVLink
// capped at 400 GB/s (vs 600 on A100).
func A800() GPUSpec {
	return GPUSpec{
		Name:      "A800",
		PeakFLOPS: 312e12,
		MFU:       0.45,
		MemBytes:  80 * (1 << 30),
	}
}

// Link bandwidths (bytes/s, effective per direction) and latencies used by
// the topology presets.
const (
	// NVLinkBW is the A800's capped NVLink bandwidth. The 400 GB/s figure
	// is aggregate; an effective 200 GB/s per neighbour direction is what a
	// ring schedule sees.
	NVLinkBW = 200e9
	// NVLinkLatency per message.
	NVLinkLatency = 3e-6
	// PCIeBW is PCIe 4.0 x16 effective bandwidth.
	PCIeBW      = 24e9
	PCIeLatency = 5e-6
	// EthernetBW is the paper's 10 Gb Ethernet between clusters.
	EthernetBW      = 1.25e9
	EthernetLatency = 30e-6
)

// Topology is a unidirectional ring of P workers. Link i carries traffic
// from worker i to worker (i+1) mod P; SendBW/Latency describe each link.
// Collectives (NCCL ring algorithms, per the paper's configuration) are
// bottlenecked by the slowest link.
type Topology struct {
	Name    string
	P       int
	SendBW  []float64
	Latency []float64
	// PerGroup records how many contiguous workers share a fast fabric
	// (a server / NVLink island). 0 means the ring is uniform: one group
	// spanning all P workers. Set by Grouped; consumed by the scheduler's
	// grouped-belt strategy and the traffic-tier accounting.
	PerGroup int
}

// Validate panics on malformed topologies (programming errors).
func (t Topology) Validate() {
	if t.P <= 0 || len(t.SendBW) != t.P || len(t.Latency) != t.P {
		panic(fmt.Sprintf("cluster: malformed topology %q", t.Name))
	}
	for i, bw := range t.SendBW {
		if bw <= 0 || t.Latency[i] < 0 {
			panic(fmt.Sprintf("cluster: bad link %d in %q", i, t.Name))
		}
	}
}

// MinBW returns the slowest link bandwidth (the ring-collective bottleneck).
func (t Topology) MinBW() float64 {
	m := t.SendBW[0]
	for _, bw := range t.SendBW[1:] {
		if bw < m {
			m = bw
		}
	}
	return m
}

// MaxLatency returns the largest per-hop latency.
func (t Topology) MaxLatency() float64 {
	m := t.Latency[0]
	for _, l := range t.Latency[1:] {
		if l > m {
			m = l
		}
	}
	return m
}

// RingAllReduceTime returns the ring all-reduce wall time for `bytes` per
// rank: 2(P−1)/P·bytes over the slowest link plus per-hop latencies.
func (t Topology) RingAllReduceTime(bytes float64) float64 {
	if t.P == 1 {
		return 0
	}
	p := float64(t.P)
	return 2*(p-1)/p*bytes/t.MinBW()*1 /* one full rotation each phase */ +
		2*(p-1)*t.MaxLatency()
}

// RingAllGatherTime returns the ring all-gather (or reduce-scatter) wall
// time for a `bytes`-sized full vector.
func (t Topology) RingAllGatherTime(bytes float64) float64 {
	if t.P == 1 {
		return 0
	}
	p := float64(t.P)
	return (p-1)/p*bytes/t.MinBW() + (p-1)*t.MaxLatency()
}

// uniform builds a ring with identical links.
func uniform(name string, p int, bw, lat float64) Topology {
	t := Topology{Name: name, P: p, SendBW: make([]float64, p), Latency: make([]float64, p)}
	for i := 0; i < p; i++ {
		t.SendBW[i] = bw
		t.Latency[i] = lat
	}
	return t
}

// Grouped builds a ring where workers are packed `perGroup` to a server:
// links within a server use (intraBW, intraLat), links crossing a server
// boundary use (interBW, interLat). The NVLink*/PCIe* presets are thin
// wrappers around this constructor.
func Grouped(name string, p, perGroup int, intraBW, intraLat, interBW, interLat float64) Topology {
	if perGroup <= 0 || p%perGroup != 0 {
		panic(fmt.Sprintf("cluster: %d workers not divisible into groups of %d", p, perGroup))
	}
	t := Topology{Name: name, P: p, SendBW: make([]float64, p), Latency: make([]float64, p), PerGroup: perGroup}
	for i := 0; i < p; i++ {
		if (i+1)%perGroup == 0 { // link i → i+1 leaves the server (incl. wrap)
			t.SendBW[i] = interBW
			t.Latency[i] = interLat
		} else {
			t.SendBW[i] = intraBW
			t.Latency[i] = intraLat
		}
	}
	// Single-group rings never leave the server.
	if p == perGroup {
		for i := range t.SendBW {
			t.SendBW[i] = intraBW
			t.Latency[i] = intraLat
		}
	}
	return t
}

// GroupSize normalizes PerGroup: uniform rings are one group of P.
func (t Topology) GroupSize() int {
	if t.PerGroup <= 0 || t.PerGroup > t.P {
		return t.P
	}
	return t.PerGroup
}

// BoundaryLink reports whether ring link i (worker i → i+1 mod P) crosses
// a group boundary. Uniform rings have no boundary links.
func (t Topology) BoundaryLink(i int) bool {
	m := t.GroupSize()
	return m < t.P && (i+1)%m == 0
}

// GroupFabric returns the (bandwidth, latency) the scheduler should charge
// for a non-adjacent transfer inside group g: the slowest intra-group link
// and the largest intra-group latency. Falls back to the whole-ring
// bottleneck for single-worker groups.
func (t Topology) GroupFabric(g int) (bw, lat float64) {
	m := t.GroupSize()
	lo := g * m
	bw, lat = 0, 0
	for i := lo; i < lo+m; i++ {
		if t.BoundaryLink(i) {
			continue
		}
		if bw == 0 || t.SendBW[i] < bw {
			bw = t.SendBW[i]
		}
		if t.Latency[i] > lat {
			lat = t.Latency[i]
		}
	}
	if bw == 0 { // m == 1: no intra links exist
		return t.MinBW(), t.MaxLatency()
	}
	return bw, lat
}

// NVLinkSingle is an all-NVLink ring (one tightly-coupled server/cluster).
func NVLinkSingle(p int) Topology {
	return uniform(fmt.Sprintf("nvlink-%d", p), p, NVLinkBW, NVLinkLatency)
}

// NVLinkTwoClusters is the paper's first environment (Table 2): p GPUs
// split across two NVLink clusters. Back-solving the paper's own 1F1B
// throughput against its compute-only bound puts the inter-cluster hop at
// ≈1 GB/s — i.e. the clusters are joined by the same 10 Gb Ethernet used in
// the scaling studies, with NVLink only inside each cluster.
func NVLinkTwoClusters(p int) Topology {
	if p%2 != 0 {
		panic("cluster: NVLinkTwoClusters needs an even worker count")
	}
	return Grouped(fmt.Sprintf("nvlink-2x%d", p/2), p, p/2,
		NVLinkBW, NVLinkLatency, EthernetBW, EthernetLatency)
}

// PCIeEthernet is the paper's second environment: PCIe within each cluster
// and 10 Gb Ethernet between clusters (Table 3: 16 GPUs across clusters).
func PCIeEthernet(p, perCluster int) Topology {
	return Grouped(fmt.Sprintf("pcie-eth-%dx%d", p/perCluster, perCluster), p, perCluster,
		PCIeBW, PCIeLatency, EthernetBW, EthernetLatency)
}

// NVLinkEthernet is the scaling-figure environment: NVLink within each
// server, 10 Gb Ethernet between servers (Figures 6–9).
func NVLinkEthernet(p, perServer int) Topology {
	return Grouped(fmt.Sprintf("nvlink-eth-%dx%d", p/perServer, perServer), p, perServer,
		NVLinkBW, NVLinkLatency, EthernetBW, EthernetLatency)
}
