package comm

import (
	"fmt"
	"sort"
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
	mu        sync.Mutex
	sentBytes map[Kind]int64
	sentMsgs  map[Kind]int64
	faults    map[int]*PeerFaults

	// Exposed-communication telemetry. recvWaitNs is the total time
	// receivers spent blocked inside the transport waiting for a matching
	// message (from any goroutine). beltStallNs is recorded by the runners
	// themselves: the compute thread's critical-path wait for belt payloads.
	// inflightBytes gauges the bytes delivered to this rank's mailbox but not
	// yet consumed; maxInflight is its high-water mark.
	recvWaitNs    int64
	beltStallNs   int64
	weightStallNs int64 // the KindWeight share of beltStallNs
	inflightBytes int64
	maxInflight   int64

	// Integrity telemetry: end-to-end checksum verifications by payload
	// kind (resident-state and kernel checks record under KindCtl). The
	// maps stay nil until the first check, so runs with integrity off pay
	// nothing.
	integrityChecks map[Kind]int64
	integrityFails  map[Kind]int64

	// Link-tier accounting. When groupSize > 0 every send whose source and
	// destination ranks are known is classified as intra-group (same block
	// of groupSize contiguous ranks — the fast fabric) or inter-group (a
	// boundary crossing — the slow fabric). This is the measured
	// counterpart of the simulator's hierarchical link model: the grouped
	// belt's dedup win shows up here as a drop in interBytes.
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

func (f PeerFaults) zero() bool {
	return f.Retransmits == 0 && f.Timeouts == 0 && f.Reconnects == 0 &&
		f.HeartbeatMisses == 0 && f.CorruptFrames == 0 && f.DupFrames == 0 &&
		f.StaleEpochs == 0
}

// NewStats returns an empty meter (used for aggregation).
func NewStats() *Stats { return newStats() }

func newStats() *Stats {
	return &Stats{
		sentBytes: make(map[Kind]int64),
		sentMsgs:  make(map[Kind]int64),
		faults:    make(map[int]*PeerFaults),
	}
}

func (s *Stats) record(kind Kind, elems, bytesPerElem int) {
	s.recordPeer(-1, -1, kind, elems, bytesPerElem)
}

// recordPeer is record with link-tier attribution: src/dst are the global
// transport ranks of the send (pass -1 when unknown, e.g. aggregation).
func (s *Stats) recordPeer(src, dst int, kind Kind, elems, bytesPerElem int) {
	b := int64(elems) * int64(bytesPerElem)
	s.mu.Lock()
	s.sentBytes[kind] += b
	s.sentMsgs[kind]++
	if s.groupSize > 0 && src >= 0 && dst >= 0 {
		if src/s.groupSize == dst/s.groupSize {
			s.intraBytes += b
			s.intraMsgs++
		} else {
			s.interBytes += b
			s.interMsgs++
		}
	}
	s.mu.Unlock()
}

// SetGroupSize arms link-tier accounting: sends between ranks in the same
// contiguous block of m ranks count as intra-group, the rest as
// inter-group. m <= 0 disables tier accounting (the default).
func (s *Stats) SetGroupSize(m int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.groupSize = m
	s.mu.Unlock()
}

// GroupSize returns the tier-accounting group size (0 when disabled).
func (s *Stats) GroupSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.groupSize
}

// IntraGroupTraffic returns the bytes and messages sent on intra-group
// links since tier accounting was armed via SetGroupSize.
func (s *Stats) IntraGroupTraffic() (bytes, msgs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.intraBytes, s.intraMsgs
}

// InterGroupTraffic returns the bytes and messages sent across group
// boundaries since tier accounting was armed via SetGroupSize.
func (s *Stats) InterGroupTraffic() (bytes, msgs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.interBytes, s.interMsgs
}

// noteRecvWait accumulates time a receiver spent blocked in the transport.
func (s *Stats) noteRecvWait(d time.Duration) {
	s.mu.Lock()
	s.recvWaitNs += int64(d)
	s.mu.Unlock()
}

// noteInflight moves the delivered-but-unconsumed byte gauge by delta and
// tracks its high-water mark.
func (s *Stats) noteInflight(delta int64) {
	s.mu.Lock()
	s.inflightBytes += delta
	if s.inflightBytes > s.maxInflight {
		s.maxInflight = s.inflightBytes
	}
	s.mu.Unlock()
}

// RecordBeltStall accumulates compute-thread time spent waiting for a belt
// payload. The pipeline runners call it around their critical-path
// receives: it is the measured exposed-communication figure.
func (s *Stats) RecordBeltStall(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.mu.Lock()
	s.beltStallNs += int64(d)
	s.mu.Unlock()
}

// RecordBeltStallKind is RecordBeltStall with payload-kind attribution.
// Weight-belt waits are communication exposure — every weight chunk exists
// from iteration start, so a wait for one is the upstream hops' wire time
// (or, on a CPU-saturated host, their turn on a core). Gradient-belt waits
// are producer serialization: the upstream rank must accumulate first.
func (s *Stats) RecordBeltStallKind(kind Kind, d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.mu.Lock()
	s.beltStallNs += int64(d)
	if kind == KindWeight {
		s.weightStallNs += int64(d)
	}
	s.mu.Unlock()
}

// RecvWait returns the cumulative blocked-receive time.
func (s *Stats) RecvWait() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.recvWaitNs)
}

// BeltStall returns the cumulative critical-path belt wait recorded by the
// runners via RecordBeltStall.
func (s *Stats) BeltStall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.beltStallNs)
}

// WeightBeltStall returns the KindWeight share of BeltStall: the
// compute thread's exposed wait for weight-belt payloads specifically.
func (s *Stats) WeightBeltStall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.weightStallNs)
}

// InFlightBytes returns the bytes currently delivered but unconsumed.
func (s *Stats) InFlightBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflightBytes
}

// MaxInFlightBytes returns the in-flight gauge's high-water mark.
func (s *Stats) MaxInFlightBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxInflight
}

// RecordIntegrityCheck counts one end-to-end integrity verification of a
// payload of the given kind, and whether it failed.
func (s *Stats) RecordIntegrityCheck(kind Kind, ok bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.integrityChecks == nil {
		s.integrityChecks = make(map[Kind]int64)
		s.integrityFails = make(map[Kind]int64)
	}
	s.integrityChecks[kind]++
	if !ok {
		s.integrityFails[kind]++
	}
	s.mu.Unlock()
}

// IntegrityChecks returns the number of integrity verifications run on
// payloads of the given kind.
func (s *Stats) IntegrityChecks(kind Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.integrityChecks[kind]
}

// IntegrityFailures returns the number of failed integrity verifications
// for payloads of the given kind.
func (s *Stats) IntegrityFailures(kind Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.integrityFails[kind]
}

// TotalIntegrityChecks sums integrity verifications across all kinds.
func (s *Stats) TotalIntegrityChecks() (checks, failures int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.integrityChecks {
		checks += v
	}
	for _, v := range s.integrityFails {
		failures += v
	}
	return checks, failures
}

// peerFaults returns the (locked-caller) fault record for peer.
func (s *Stats) peerFaults(peer int) *PeerFaults {
	f := s.faults[peer]
	if f == nil {
		f = &PeerFaults{}
		s.faults[peer] = f
	}
	return f
}

func (s *Stats) recordRetransmit(peer int, n int64) {
	s.mu.Lock()
	s.peerFaults(peer).Retransmits += n
	s.mu.Unlock()
}

func (s *Stats) recordTimeout(peer int) {
	s.mu.Lock()
	s.peerFaults(peer).Timeouts++
	s.mu.Unlock()
}

func (s *Stats) recordReconnect(peer int) {
	s.mu.Lock()
	s.peerFaults(peer).Reconnects++
	s.mu.Unlock()
}

func (s *Stats) recordHeartbeatMiss(peer int) {
	s.mu.Lock()
	s.peerFaults(peer).HeartbeatMisses++
	s.mu.Unlock()
}

func (s *Stats) recordCorrupt(peer int) {
	s.mu.Lock()
	s.peerFaults(peer).CorruptFrames++
	s.mu.Unlock()
}

func (s *Stats) recordDup(peer int) {
	s.mu.Lock()
	s.peerFaults(peer).DupFrames++
	s.mu.Unlock()
}

func (s *Stats) recordStaleEpoch(peer int) {
	s.mu.Lock()
	s.peerFaults(peer).StaleEpochs++
	s.mu.Unlock()
}

// recordWireWrite counts one kernel write of framed traffic.
func (s *Stats) recordWireWrite() {
	s.mu.Lock()
	s.wireWrites++
	s.mu.Unlock()
}

// WireWrites returns the number of kernel writes of framed traffic.
func (s *Stats) WireWrites() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wireWrites
}

// Faults returns a copy of the fault counters for one peer link.
func (s *Stats) Faults(peer int) PeerFaults {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.faults[peer]; f != nil {
		return *f
	}
	return PeerFaults{}
}

// TotalFaults sums the fault counters across all peers.
func (s *Stats) TotalFaults() PeerFaults {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t PeerFaults
	for _, f := range s.faults {
		t.Retransmits += f.Retransmits
		t.Timeouts += f.Timeouts
		t.Reconnects += f.Reconnects
		t.HeartbeatMisses += f.HeartbeatMisses
		t.CorruptFrames += f.CorruptFrames
		t.DupFrames += f.DupFrames
		t.StaleEpochs += f.StaleEpochs
	}
	return t
}

// SentBytes returns the bytes sent under the given kind.
func (s *Stats) SentBytes(kind Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sentBytes[kind]
}

// SentMsgs returns the message count sent under the given kind.
func (s *Stats) SentMsgs(kind Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sentMsgs[kind]
}

// TotalSentBytes returns the bytes sent across all kinds.
func (s *Stats) TotalSentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, v := range s.sentBytes {
		t += v
	}
	return t
}

// Add accumulates o into s (used to aggregate per-rank meters).
func (s *Stats) Add(o *Stats) {
	o.mu.Lock()
	kinds := make([]Kind, 0, len(o.sentBytes))
	for k := range o.sentBytes {
		kinds = append(kinds, k)
	}
	bytesCopy := make(map[Kind]int64, len(kinds))
	msgsCopy := make(map[Kind]int64, len(kinds))
	for _, k := range kinds {
		bytesCopy[k] = o.sentBytes[k]
		msgsCopy[k] = o.sentMsgs[k]
	}
	faultsCopy := make(map[int]PeerFaults, len(o.faults))
	for p, f := range o.faults {
		faultsCopy[p] = *f
	}
	recvWait, beltStall, weightStall, maxFly := o.recvWaitNs, o.beltStallNs, o.weightStallNs, o.maxInflight
	gsz := o.groupSize
	intraB, intraM, interB, interM := o.intraBytes, o.intraMsgs, o.interBytes, o.interMsgs
	wireWrites := o.wireWrites
	var icCopy, ifCopy map[Kind]int64
	if o.integrityChecks != nil {
		icCopy = make(map[Kind]int64, len(o.integrityChecks))
		ifCopy = make(map[Kind]int64, len(o.integrityFails))
		for k, v := range o.integrityChecks {
			icCopy[k] = v
		}
		for k, v := range o.integrityFails {
			ifCopy[k] = v
		}
	}
	o.mu.Unlock()

	s.mu.Lock()
	for k, v := range bytesCopy {
		s.sentBytes[k] += v
	}
	for k, v := range msgsCopy {
		s.sentMsgs[k] += v
	}
	for p, f := range faultsCopy {
		t := s.peerFaults(p)
		t.Retransmits += f.Retransmits
		t.Timeouts += f.Timeouts
		t.Reconnects += f.Reconnects
		t.HeartbeatMisses += f.HeartbeatMisses
		t.CorruptFrames += f.CorruptFrames
		t.DupFrames += f.DupFrames
		t.StaleEpochs += f.StaleEpochs
	}
	s.recvWaitNs += recvWait
	s.beltStallNs += beltStall
	s.weightStallNs += weightStall
	if s.groupSize == 0 {
		s.groupSize = gsz
	}
	s.intraBytes += intraB
	s.intraMsgs += intraM
	s.interBytes += interB
	s.interMsgs += interM
	s.wireWrites += wireWrites
	if maxFly > s.maxInflight {
		s.maxInflight = maxFly
	}
	if icCopy != nil {
		if s.integrityChecks == nil {
			s.integrityChecks = make(map[Kind]int64)
			s.integrityFails = make(map[Kind]int64)
		}
		for k, v := range icCopy {
			s.integrityChecks[k] += v
		}
		for k, v := range ifCopy {
			s.integrityFails[k] += v
		}
	}
	s.mu.Unlock()
}

// String renders the meter sorted by kind.
func (s *Stats) String() string {
	names := map[Kind]string{
		KindWeight: "weights", KindGrad: "weight-grads", KindAct: "activations",
		KindActGrad: "act-grads", KindColl: "collectives", KindCtl: "control",
		KindBuddy: "buddy",
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kinds := make([]int, 0, len(s.sentBytes))
	for k := range s.sentBytes {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%dB/%d msgs",
			names[Kind(k)], s.sentBytes[Kind(k)], s.sentMsgs[Kind(k)]))
	}
	if s.wireWrites > 0 {
		parts = append(parts, fmt.Sprintf("writes=%d", s.wireWrites))
	}
	peers := make([]int, 0, len(s.faults))
	for p := range s.faults {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		f := s.faults[p]
		if f.zero() {
			continue
		}
		parts = append(parts, fmt.Sprintf(
			"peer%d[rtx=%d to=%d rc=%d hb=%d crc=%d dup=%d stale=%d]",
			p, f.Retransmits, f.Timeouts, f.Reconnects, f.HeartbeatMisses,
			f.CorruptFrames, f.DupFrames, f.StaleEpochs))
	}
	if s.groupSize > 0 && (s.intraMsgs > 0 || s.interMsgs > 0) {
		parts = append(parts, fmt.Sprintf("tiers[m=%d intra=%dB/%d inter=%dB/%d]",
			s.groupSize, s.intraBytes, s.intraMsgs, s.interBytes, s.interMsgs))
	}
	if s.recvWaitNs > 0 || s.beltStallNs > 0 || s.maxInflight > 0 {
		parts = append(parts, fmt.Sprintf("exposed[wait=%s stall=%s maxfly=%dB]",
			time.Duration(s.recvWaitNs).Round(time.Microsecond),
			time.Duration(s.beltStallNs).Round(time.Microsecond), s.maxInflight))
	}
	if len(s.integrityChecks) > 0 {
		var checks, fails int64
		for _, v := range s.integrityChecks {
			checks += v
		}
		for _, v := range s.integrityFails {
			fails += v
		}
		parts = append(parts, fmt.Sprintf("integrity[checks=%d fails=%d]", checks, fails))
	}
	return strings.Join(parts, " ")
}

// Meter is implemented by transports that record communication statistics.
type Meter interface {
	// CommStats returns the transport's live meter (shared, concurrency-safe).
	CommStats() *Stats
}
