package comm

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Stats is a per-rank communication meter, broken down by message Kind.
// It is the functional analogue of the paper's TBW (total bandwidth usage)
// analysis: the equivalence suite uses it to verify that WeiPipe's wire
// volume is made of weights and weight-gradients only and is independent of
// microbatch size and sequence length, while activation-passing pipelines
// scale with G·S·H.
type Stats struct {
	mu sync.Mutex
	c  counters
}

// counters is the meter's value. Its label space is fixed and small (kinds,
// peers, two link tiers), so every counter is a plain field or array and
// add is the one merge.
type counters struct {
	sentBytes [kindCount]int64
	sentMsgs  [kindCount]int64
	faults    []PeerFaults // indexed by peer rank

	// Exposed-communication telemetry. recvWaitNs is the total time
	// receivers spent blocked inside the transport waiting for a matching
	// message (from any goroutine). beltStallNs is recorded by the runners
	// themselves: the compute thread's critical-path wait for belt payloads.
	// inflight gauges the bytes delivered to this rank's mailbox but not
	// yet consumed; maxInflight is its high-water mark.
	recvWaitNs  int64
	beltStallNs int64
	inflight    int64
	maxInflight int64

	// Integrity telemetry: end-to-end checksum verifications by payload
	// kind (resident-state and kernel checks record under KindCtl).
	checks [kindCount]int64
	fails  [kindCount]int64

	// Link-tier accounting. When groupSize > 0 every data-plane send whose
	// source and destination ranks are known is classified as intra-group
	// (same block of groupSize contiguous ranks — the fast fabric) or
	// inter-group (a boundary crossing — the slow fabric). This is the
	// measured counterpart of the simulator's hierarchical link model,
	// which models no control plane, so KindCtl sends (loss barriers,
	// checkpoint gathers, repair protocols) stay out of the tiers: the
	// grouped belt's dedup win shows up here as a drop in interBytes.
	groupSize  int
	intraBytes int64
	intraMsgs  int64
	interBytes int64
	interMsgs  int64

	// wireWrites counts kernel writes (one writev per writer flush) of
	// framed traffic: against SentMsgs it shows how many frames each flush
	// coalesced.
	wireWrites int64
}

// add accumulates o into c. Every counter sums except three: maxInflight
// takes the larger mark, groupSize keeps the first non-zero size, and the
// live inflight gauge, which describes one rank's mailbox, is not carried.
func (c *counters) add(o *counters) {
	for k := range kindCount {
		c.sentBytes[k] += o.sentBytes[k]
		c.sentMsgs[k] += o.sentMsgs[k]
		c.checks[k] += o.checks[k]
		c.fails[k] += o.fails[k]
	}
	for p, f := range o.faults {
		c.peer(p).add(f)
	}
	c.recvWaitNs += o.recvWaitNs
	c.beltStallNs += o.beltStallNs
	c.maxInflight = max(c.maxInflight, o.maxInflight)
	if c.groupSize == 0 {
		c.groupSize = o.groupSize
	}
	c.intraBytes += o.intraBytes
	c.intraMsgs += o.intraMsgs
	c.interBytes += o.interBytes
	c.interMsgs += o.interMsgs
	c.wireWrites += o.wireWrites
}

// peer returns peer p's fault record, growing the table to hold it.
func (c *counters) peer(p int) *PeerFaults {
	if p >= len(c.faults) {
		c.faults = append(c.faults, make([]PeerFaults, p+1-len(c.faults))...)
	}
	return &c.faults[p]
}

// PeerFaults counts the fault-handling events of one peer link: the
// observability surface of the resilience layer (retransmissions, receive
// timeouts, reconnections, heartbeat misses, CRC failures and duplicate
// frames discarded by the sequence-number dedup).
type PeerFaults struct {
	Retransmits     int64 // frames re-sent because an ack did not arrive in time
	Timeouts        int64 // RecvTimeout deadlines that expired on this peer
	Reconnects      int64 // successful re-establishments of the connection
	HeartbeatMisses int64 // heartbeat intervals that elapsed with no traffic
	CorruptFrames   int64 // frames discarded for CRC mismatch
	DupFrames       int64 // duplicate frames discarded by sequence dedup
	StaleEpochs     int64 // frames/handshakes rejected by the epoch fence
}

func (f *PeerFaults) add(o PeerFaults) {
	f.Retransmits += o.Retransmits
	f.Timeouts += o.Timeouts
	f.Reconnects += o.Reconnects
	f.HeartbeatMisses += o.HeartbeatMisses
	f.CorruptFrames += o.CorruptFrames
	f.DupFrames += o.DupFrames
	f.StaleEpochs += o.StaleEpochs
}

// NewStats returns an empty meter (used for aggregation).
func NewStats() *Stats { return new(Stats) }

func (s *Stats) record(kind Kind, elems, bytesPerElem int) {
	s.recordPeer(-1, -1, kind, elems, bytesPerElem)
}

// recordPeer is record with link-tier attribution: src/dst are the global
// transport ranks of the send (pass -1 when unknown, e.g. aggregation).
func (s *Stats) recordPeer(src, dst int, kind Kind, elems, bytesPerElem int) {
	b := int64(elems) * int64(bytesPerElem)
	s.mu.Lock()
	c := &s.c
	c.sentBytes[kind] += b
	c.sentMsgs[kind]++
	if c.groupSize > 0 && src >= 0 && dst >= 0 && kind != KindCtl {
		if src/c.groupSize == dst/c.groupSize {
			c.intraBytes += b
			c.intraMsgs++
		} else {
			c.interBytes += b
			c.interMsgs++
		}
	}
	s.mu.Unlock()
}

// SetGroupSize arms link-tier accounting: sends between ranks in the same
// contiguous block of m ranks count as intra-group, the rest as
// inter-group. m <= 0 disables tier accounting (the default).
func (s *Stats) SetGroupSize(m int) {
	s.mu.Lock()
	s.c.groupSize = m
	s.mu.Unlock()
}

// GroupSize returns the tier-accounting group size (0 when disabled).
func (s *Stats) GroupSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.groupSize
}

// IntraGroupTraffic returns the bytes and messages sent on intra-group
// links since tier accounting was armed via SetGroupSize.
func (s *Stats) IntraGroupTraffic() (bytes, msgs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.intraBytes, s.c.intraMsgs
}

// InterGroupTraffic returns the bytes and messages sent across group
// boundaries since tier accounting was armed via SetGroupSize.
func (s *Stats) InterGroupTraffic() (bytes, msgs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.interBytes, s.c.interMsgs
}

// noteRecvWait accumulates time a receiver spent blocked in the transport.
func (s *Stats) noteRecvWait(d time.Duration) {
	s.mu.Lock()
	s.c.recvWaitNs += int64(d)
	s.mu.Unlock()
}

// noteInflight moves the delivered-but-unconsumed byte gauge by delta and
// tracks its high-water mark.
func (s *Stats) noteInflight(delta int64) {
	s.mu.Lock()
	s.c.inflight += delta
	s.c.maxInflight = max(s.c.maxInflight, s.c.inflight)
	s.mu.Unlock()
}

// RecordBeltStall accumulates compute-thread time spent waiting for a belt
// payload. The pipeline runners call it around their critical-path
// receives: it is the measured exposed-communication figure.
func (s *Stats) RecordBeltStall(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.c.beltStallNs += int64(d)
	s.mu.Unlock()
}

// RecvWait returns the cumulative blocked-receive time.
func (s *Stats) RecvWait() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.c.recvWaitNs)
}

// BeltStall returns the cumulative critical-path belt wait recorded by the
// runners via RecordBeltStall.
func (s *Stats) BeltStall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.c.beltStallNs)
}

// MaxInFlightBytes returns the in-flight gauge's high-water mark.
func (s *Stats) MaxInFlightBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.maxInflight
}

// RecordIntegrityCheck counts one end-to-end integrity verification of a
// payload of the given kind, and whether it failed.
func (s *Stats) RecordIntegrityCheck(kind Kind, ok bool) {
	s.mu.Lock()
	s.c.checks[kind]++
	if !ok {
		s.c.fails[kind]++
	}
	s.mu.Unlock()
}

// IntegrityChecks returns the number of integrity verifications run on
// payloads of the given kind.
func (s *Stats) IntegrityChecks(kind Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.checks[kind]
}

// TotalIntegrityChecks sums integrity verifications across all kinds.
func (s *Stats) TotalIntegrityChecks() (checks, failures int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sum(s.c.checks), sum(s.c.fails)
}

// recordFault adds d to peer's fault counters.
func (s *Stats) recordFault(peer int, d PeerFaults) {
	s.mu.Lock()
	s.c.peer(peer).add(d)
	s.mu.Unlock()
}

func (s *Stats) recordRetransmit(peer int, n int64) { s.recordFault(peer, PeerFaults{Retransmits: n}) }
func (s *Stats) recordTimeout(peer int)             { s.recordFault(peer, PeerFaults{Timeouts: 1}) }
func (s *Stats) recordReconnect(peer int)           { s.recordFault(peer, PeerFaults{Reconnects: 1}) }
func (s *Stats) recordHeartbeatMiss(peer int)       { s.recordFault(peer, PeerFaults{HeartbeatMisses: 1}) }
func (s *Stats) recordCorrupt(peer int)             { s.recordFault(peer, PeerFaults{CorruptFrames: 1}) }
func (s *Stats) recordDup(peer int)                 { s.recordFault(peer, PeerFaults{DupFrames: 1}) }
func (s *Stats) recordStaleEpoch(peer int)          { s.recordFault(peer, PeerFaults{StaleEpochs: 1}) }

// recordWireWrite counts one kernel write of framed traffic.
func (s *Stats) recordWireWrite() {
	s.mu.Lock()
	s.c.wireWrites++
	s.mu.Unlock()
}

// WireWrites returns the number of kernel writes of framed traffic.
func (s *Stats) WireWrites() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.wireWrites
}

// Faults returns a copy of the fault counters for one peer link.
func (s *Stats) Faults(peer int) PeerFaults {
	s.mu.Lock()
	defer s.mu.Unlock()
	if peer < 0 || peer >= len(s.c.faults) {
		return PeerFaults{}
	}
	return s.c.faults[peer]
}

// TotalFaults sums the fault counters across all peers.
func (s *Stats) TotalFaults() PeerFaults {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t PeerFaults
	for _, f := range s.c.faults {
		t.add(f)
	}
	return t
}

// SentBytes returns the bytes sent under the given kind.
func (s *Stats) SentBytes(kind Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.sentBytes[kind]
}

// SentMsgs returns the message count sent under the given kind.
func (s *Stats) SentMsgs(kind Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.sentMsgs[kind]
}

// TotalSentBytes returns the bytes sent across all kinds.
func (s *Stats) TotalSentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sum(s.c.sentBytes)
}

func sum(a [kindCount]int64) (t int64) {
	for _, v := range a {
		t += v
	}
	return t
}

// Add accumulates o into s (used to aggregate per-rank meters).
func (s *Stats) Add(o *Stats) {
	o.mu.Lock()
	c := o.c
	c.faults = slices.Clone(c.faults)
	o.mu.Unlock()
	s.mu.Lock()
	s.c.add(&c)
	s.mu.Unlock()
}

// kindNames are the kinds' labels in String, indexed by Kind.
var kindNames = [kindCount]string{
	KindWeight: "weights", KindGrad: "weight-grads", KindAct: "activations",
	KindActGrad: "act-grads", KindColl: "collectives", KindCtl: "control",
	KindBuddy: "buddy",
}

// String renders the meter sorted by kind.
func (s *Stats) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &s.c
	var parts []string
	for k, n := range c.sentMsgs {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%dB/%d msgs", kindNames[k], c.sentBytes[k], n))
		}
	}
	if c.wireWrites > 0 {
		parts = append(parts, fmt.Sprintf("writes=%d", c.wireWrites))
	}
	for p, f := range c.faults {
		if f == (PeerFaults{}) {
			continue
		}
		parts = append(parts, fmt.Sprintf(
			"peer%d[rtx=%d to=%d rc=%d hb=%d crc=%d dup=%d stale=%d]",
			p, f.Retransmits, f.Timeouts, f.Reconnects, f.HeartbeatMisses,
			f.CorruptFrames, f.DupFrames, f.StaleEpochs))
	}
	if c.groupSize > 0 && (c.intraMsgs > 0 || c.interMsgs > 0) {
		parts = append(parts, fmt.Sprintf("tiers[m=%d intra=%dB/%d inter=%dB/%d]",
			c.groupSize, c.intraBytes, c.intraMsgs, c.interBytes, c.interMsgs))
	}
	if c.recvWaitNs > 0 || c.beltStallNs > 0 || c.maxInflight > 0 {
		parts = append(parts, fmt.Sprintf("exposed[wait=%s stall=%s maxfly=%dB]",
			time.Duration(c.recvWaitNs).Round(time.Microsecond),
			time.Duration(c.beltStallNs).Round(time.Microsecond), c.maxInflight))
	}
	if checks, fails := sum(c.checks), sum(c.fails); checks > 0 {
		parts = append(parts, fmt.Sprintf("integrity[checks=%d fails=%d]", checks, fails))
	}
	return strings.Join(parts, " ")
}

// Meter is the part of Transport that reports communication statistics.
type Meter interface {
	// CommStats returns the transport's live meter (shared,
	// concurrency-safe, never nil).
	CommStats() *Stats
}
