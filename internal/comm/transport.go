// Package comm provides the message-passing substrate the training runtimes
// communicate over: a tagged point-to-point Transport with an in-process
// (goroutine/channel) implementation and a TCP implementation, plus ring
// collectives (all-reduce, all-gather, reduce-scatter, broadcast) built
// purely on P2P — mirroring the paper's NCCL configuration, where the
// collective primitives are ring-based and tree algorithms are disabled.
//
// Sends are asynchronous and buffered (the analogue of the paper's
// batch_isend_irecv prefetching): Send never blocks waiting for the
// receiver, and Recv blocks until a matching message arrives. Payloads are
// always copied at the send boundary, so ranks can never alias each other's
// memory — in-process training observes the same isolation as a network.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Kind classifies a message so tags from different protocol phases can never
// collide.
type Kind uint8

// Message kinds used by the runtimes.
const (
	// KindWeight carries a flat weight chunk (WeiPipe W flow).
	KindWeight Kind = iota
	// KindGrad carries a flat weight-gradient chunk (WeiPipe D flow).
	KindGrad
	// KindAct carries boundary activations (activation-passing PP).
	KindAct
	// KindActGrad carries boundary activation gradients.
	KindActGrad
	// KindColl is reserved for the collective implementations.
	KindColl
	// KindCtl carries small control payloads (loss values, barriers).
	KindCtl
	// KindBuddy carries buddy-replication state (the summed gradient an
	// owner sends the rank that shadows its optimizer shard). It is
	// deliberately distinct from KindWeight/KindGrad so tests can assert the
	// training critical path's message counts are unchanged by replication.
	KindBuddy

	// kindCount is one past the highest Kind. The wire framing validates
	// frame kinds against it, so a Kind added above is accepted on the wire
	// without touching the decoder.
	kindCount
)

// Tag identifies a message stream between two ranks. A and B are
// protocol-defined indices (e.g. chunk id and turn, or microbatch and
// stage); matching is exact on (source, Kind, A, B).
type Tag struct {
	Kind Kind
	A    int
	B    int
}

func (t Tag) String() string {
	return fmt.Sprintf("%d/%d/%d", t.Kind, t.A, t.B)
}

// Transport is one rank's endpoint of a P2P message fabric, and the whole
// of the contract: the fabrics (in process, TCP) implement every method,
// and so does every wrapper (Group, FaultTransport, the watchdog's beacon),
// so a wrapped endpoint runs the same data path as a bare one.
type Transport interface {
	// Meter gives the endpoint's live traffic meter; it is never nil.
	Meter
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send transmits a copy of data to dst under tag. It does not block
	// waiting for the receiver and may buffer arbitrarily.
	Send(dst int, tag Tag, data []float32) error
	// SendOwned donates payload, a GetBuf buffer the caller owns, for
	// delivery to dst without a copy. The caller must not touch (or
	// Release) the slice through that reference afterwards, whatever
	// SendOwned returns: ownership transfers on the error paths too. A
	// caller that called Retain first keeps reading through the reference
	// it kept. The in-process fabric re-homes an unshared buffer in the
	// receiver's mailbox (and copies a shared one); the TCP transport hands
	// the buffer's own bytes to the socket and keeps its reference — a
	// retransmission reads the buffer again — until the peer acknowledges
	// the frame, then releases it (as it does at shutdown or peer death).
	// Send keeps its copy-at-the-boundary contract for callers that reuse
	// their slice.
	SendOwned(dst int, tag Tag, payload []float32) error
	// Forward is SendOwned for a payload whose f32 wire checksum this rank
	// already holds and which has not been written since: one the caller
	// received from this endpoint (or from the transport under a group view
	// of it), whose body this rank's reader verified, or one the caller
	// wrote in full and sealed with Seal, folding the checksum into that
	// write. The promise lets the TCP transport seal the frame from that
	// checksum instead of reading the body again. Every hop still verifies
	// every byte it receives; only the sender's re-read is skipped, so a
	// payload changed between the checksum and Forward fails the next hop's
	// check instead of being resealed. Where no checksum is held (an
	// in-process fabric, a bf16 link, a small payload, a buffer nobody
	// sealed) Forward is SendOwned. Reuse is never automatic: a buffer
	// written in place after its checksum is sealed again by its writer or
	// goes through SendOwned, which gives it a full seal. Under
	// SetBufPoison the TCP transport recomputes the checksum and panics on
	// a mismatch, which makes "not written since" a checked rule.
	Forward(dst int, tag Tag, payload []float32) error
	// SealsF32 reports whether a payload sent to a peer under tag is
	// checksummed as its f32 wire image, the checksum Seal records: true
	// on a TCP mesh whose codec for tag is f32, false in process, where
	// nothing is checksummed, and on a bf16 tag, whose image the writer
	// packs. A producer asks before it folds a checksum into its write, so
	// a fabric that never reads one never has one computed.
	SealsF32(tag Tag) bool
	// Recv blocks until a message from src with the given tag arrives and
	// returns its payload. The returned slice is owned by the caller.
	Recv(src int, tag Tag) ([]float32, error)
	// RecvTimeout is Recv with a deadline: if no matching message arrives
	// within timeout it returns a *TimeoutError (matching ErrTimeout).
	// timeout <= 0 waits forever, identical to Recv.
	RecvTimeout(src int, tag Tag, timeout time.Duration) ([]float32, error)
	// WireCodec returns the codec applied to payloads sent under tag. The
	// transport is the one owner of the wire precision: the integrity
	// layer and the grouped belt's cache ask it, so their values match
	// what the wire delivers.
	WireCodec(tag Tag) WireCodec
	// BeginRecovery moves the endpoint from "failed" (a peer death closed
	// it, unblocking every parked receive) to "recovering" (the healthy
	// links usable again for the membership-agreement and state-harvest
	// exchanges), and returns the locally observed dead set in ascending
	// rank order.
	BeginRecovery() []int
	// Flush blocks until every frame queued for a live peer has been
	// delivered, or timeout expires (an error). Close abandons queued frames
	// — it models an abrupt kill — so a clean shutdown flushes first. The
	// in-process fabric delivers at Send and returns nil at once.
	Flush(timeout time.Duration) error
	// Close releases resources. Pending Recvs fail after Close.
	Close() error
}

// msgKey matches incoming messages to receivers.
type msgKey struct {
	src int
	tag Tag
}

// mailbox is an unbounded, tag-matched message buffer shared by the
// in-process and TCP transports. It fails with a cause: closing it with a
// PeerDeadError (for instance) makes every pending and future take return
// that error, so blocked runners learn *why* their receive failed.
type mailbox struct {
	mu      sync.Mutex
	queues  map[msgKey][][]float32
	waiters map[msgKey]*keyWaiter // parked takes, woken per key
	free    [][][]float32         // recycled empty per-key queues (bounded; see take)
	err     error                 // non-nil once closed

	// stats, when non-nil, receives the exposure telemetry: bytes sitting in
	// the mailbox (delivered but not yet taken — the in-flight gauge) and
	// the time receivers spend blocked in take.
	stats *Stats
}

// keyWaiter parks the takes waiting on one key. Per-key conditions keep
// delivery wakeups targeted: a rank can have several goroutines blocked on
// the same mailbox (the compute thread, a buddy replica's receive, a
// recovery protocol), and a shared broadcast would wake all of them on every
// deliver only for all but one to re-park behind the mailbox lock.
type keyWaiter struct {
	cond *sync.Cond
	n    int // parked takes; the entry is removed when it drops to 0
}

func newMailbox() *mailbox {
	return &mailbox{
		queues:  make(map[msgKey][][]float32),
		waiters: make(map[msgKey]*keyWaiter),
	}
}

// deliver appends a payload (already owned by the mailbox) for key. New keys
// reuse a queue slice from the freelist so the steady-state deliver/take
// cycle does not allocate (belt tags never repeat, so without recycling
// every hop would allocate a fresh one-element queue).
func (m *mailbox) deliver(key msgKey, payload []float32) {
	m.mu.Lock()
	q := m.queues[key]
	if q == nil && len(m.free) > 0 {
		q = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	}
	m.queues[key] = append(q, payload)
	w := m.waiters[key]
	m.mu.Unlock()
	if m.stats != nil {
		m.stats.noteInflight(int64(len(payload)) * 4)
	}
	if w != nil {
		w.cond.Signal()
	}
}

// take blocks until a payload for key is available, the mailbox closes, or
// the timeout expires (timeout <= 0 waits forever).
func (m *mailbox) take(key msgKey, timeout time.Duration) ([]float32, error) {
	var deadline time.Time
	var w *keyWaiter
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// sync.Cond has no timed wait; a timer wake lets the loop observe the
		// deadline. The waiter entry is created up front so the timer has a
		// condition to poke.
		m.mu.Lock()
		w = m.waiter(key)
		m.mu.Unlock()
		timer := time.AfterFunc(timeout, w.cond.Broadcast)
		defer timer.Stop()
	}
	var waitStart time.Time // set the first time the take actually blocks
	m.mu.Lock()
	defer m.mu.Unlock()
	defer func() { m.unpark(key, w) }() // w may be set on first block below
	for {
		if q := m.queues[key]; len(q) > 0 {
			payload := q[0]
			if len(q) == 1 {
				delete(m.queues, key)
				q[0] = nil // drop the payload reference before recycling
				if len(m.free) < 8 {
					m.free = append(m.free, q[:0])
				}
			} else {
				m.queues[key] = q[1:]
			}
			if m.stats != nil {
				m.stats.noteInflight(int64(len(payload)) * -4)
				if !waitStart.IsZero() {
					m.stats.noteRecvWait(time.Since(waitStart))
				}
			}
			return payload, nil
		}
		if m.err != nil {
			return nil, fmt.Errorf("comm: waiting for src %d tag %v: %w", key.src, key.tag, m.err)
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return nil, &TimeoutError{Src: key.src, Tag: key.tag, Timeout: timeout}
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		if w == nil {
			w = m.waiter(key)
		}
		w.cond.Wait()
	}
}

// tryTake returns an already-delivered payload for key without blocking.
// It succeeds even on a closed mailbox: delivery outlives failure, so
// evidence that arrived before a peer death is never lost.
func (m *mailbox) tryTake(key msgKey) ([]float32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[key]
	if len(q) == 0 {
		return nil, false
	}
	payload := q[0]
	if len(q) == 1 {
		delete(m.queues, key)
		q[0] = nil
		if len(m.free) < 8 {
			m.free = append(m.free, q[:0])
		}
	} else {
		m.queues[key] = q[1:]
	}
	if m.stats != nil {
		m.stats.noteInflight(int64(len(payload)) * -4)
	}
	return payload, true
}

// waiter returns key's parked-take entry, creating it if needed, and counts
// the caller in. Callers hold m.mu and must pair with unpark.
func (m *mailbox) waiter(key msgKey) *keyWaiter {
	w := m.waiters[key]
	if w == nil {
		w = &keyWaiter{cond: sync.NewCond(&m.mu)}
		m.waiters[key] = w
	}
	w.n++
	return w
}

// unpark counts a take out of its waiter entry (nil if it never parked),
// dropping the entry once nobody waits on the key. Callers hold m.mu.
func (m *mailbox) unpark(key msgKey, w *keyWaiter) {
	if w == nil {
		return
	}
	w.n--
	if w.n == 0 {
		delete(m.waiters, key)
	}
}

// close fails the mailbox with ErrClosed (a clean local shutdown).
func (m *mailbox) close() { m.closeWithErr(ErrClosed) }

// reopen clears a peer-death closure so recovery protocols (membership
// agreement, state harvest) can keep using the healthy links. Only a
// *PeerDeadError cause is cleared: a locally-Closed mailbox stays closed —
// reopening it would race the owner's shutdown. Returns whether the
// mailbox accepts takes afterwards.
func (m *mailbox) reopen() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		return true
	}
	if !errors.Is(m.err, ErrPeerDead) {
		return false
	}
	m.err = nil
	return true
}

// closeWithErr fails all pending and future takes with cause. The first
// cause wins; later calls are no-ops.
func (m *mailbox) closeWithErr(cause error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = cause
	}
	for _, w := range m.waiters {
		w.cond.Broadcast()
	}
	m.mu.Unlock()
}
