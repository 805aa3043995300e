package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"weipipe/internal/trace"
)

// Cluster is an in-process message fabric connecting n ranks that run as
// goroutines in one address space. It is the default substrate for tests,
// examples and the functional-equivalence suite.
//
// It fails the way the TCP transport does. Closing rank r's endpoint means
// r died: every other mailbox fails its parked and future takes with
// *PeerDeadError{Rank: r}, and from then on a Send to r or a receive from
// r fails fast with the same error (anything r delivered before it died is
// still handed over). BeginRecovery reopens a surviving mailbox and
// reports the dead set, so the repair protocols run over this fabric
// exactly as over a mesh.
type Cluster struct {
	boxes []*mailbox
	stats []*Stats
	codec CodecFunc
	trace *trace.Set

	// failed is set by the first endpoint close. Until then Send and Recv
	// skip the dead-peer checks: the fault-free path costs one atomic load.
	failed atomic.Bool
	mu     sync.Mutex
	dead   []bool // endpoint r closed
}

// Stats returns rank's communication meter.
func (c *Cluster) Stats(rank int) *Stats { return c.stats[rank] }

// AttachTrace points every endpoint at its rank's tracer; send and receive
// calls then emit comm spans tagged by Kind and peer. A nil set detaches.
// Transports already handed out observe the change too — they consult the
// cluster per call, and a nil tracer costs one pointer test.
func (c *Cluster) AttachTrace(set *trace.Set) { c.trace = set }

// NewCluster creates a fabric for n ranks.
func NewCluster(n int) *Cluster {
	return NewClusterCodec(n, nil)
}

// NewClusterCodec creates a fabric whose sends encode payloads per codec
// (nil means f32 everywhere). In process there is no wire, so a lossy codec
// is emulated by rounding the payload into the codec's value domain at the
// send boundary and accounting the codec's wire bytes in Stats — receivers
// observe exactly what a TCP mesh with the same codec would deliver.
func NewClusterCodec(n int, codec CodecFunc) *Cluster {
	if n <= 0 {
		panic("comm: cluster size must be positive")
	}
	c := &Cluster{boxes: make([]*mailbox, n), stats: make([]*Stats, n), codec: codec, dead: make([]bool, n)}
	for i := range c.boxes {
		c.boxes[i] = newMailbox()
		c.stats[i] = NewStats()
		c.boxes[i].stats = c.stats[i]
	}
	return c
}

// Size returns the number of ranks.
func (c *Cluster) Size() int { return len(c.boxes) }

// Transport returns rank's endpoint.
func (c *Cluster) Transport(rank int) Transport {
	if rank < 0 || rank >= len(c.boxes) {
		panic(fmt.Sprintf("comm: rank %d out of range", rank))
	}
	return &inprocTransport{cluster: c, rank: rank, stats: c.stats[rank]}
}

// Transports returns all endpoints in rank order.
func (c *Cluster) Transports() []Transport {
	out := make([]Transport, len(c.boxes))
	for i := range out {
		out[i] = c.Transport(i)
	}
	return out
}

// Close shuts down every mailbox; blocked Recvs return errors.
func (c *Cluster) Close() {
	for _, b := range c.boxes {
		b.close()
	}
}

// kill records rank's death: its own mailbox closes, every other one fails
// with *PeerDeadError naming it. The boxes close under c.mu, so a
// concurrent BeginRecovery never reopens a mailbox this death has yet to
// fail.
func (c *Cluster) kill(rank int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead[rank] {
		return
	}
	c.dead[rank] = true
	c.failed.Store(true)
	c.boxes[rank].close()
	for r, b := range c.boxes {
		if r != rank {
			b.closeWithErr(&PeerDeadError{Rank: rank})
		}
	}
}

// peerError is the error an operation of rank self naming peer fails with
// once an endpoint has closed: ErrClosed when self is gone, a
// *PeerDeadError when peer is; nil otherwise (and always before any death).
func (c *Cluster) peerError(self, peer int) error {
	if !c.failed.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.dead[self]:
		return ErrClosed
	case c.dead[peer]:
		return &PeerDeadError{Rank: peer}
	}
	return nil
}

type inprocTransport struct {
	cluster *Cluster
	rank    int
	stats   *Stats
}

// CommStats implements Transport.
func (t *inprocTransport) CommStats() *Stats { return t.stats }

func (t *inprocTransport) Rank() int { return t.rank }
func (t *inprocTransport) Size() int { return len(t.cluster.boxes) }

// WireCodec implements Transport: the codec a payload sent under tag is
// rounded through at the send boundary.
func (t *inprocTransport) WireCodec(tag Tag) WireCodec { return codecFor(t.cluster.codec, tag) }

func (t *inprocTransport) Send(dst int, tag Tag, data []float32) error {
	if dst < 0 || dst >= t.Size() {
		return fmt.Errorf("comm: send to invalid rank %d", dst)
	}
	if err := t.cluster.peerError(t.rank, dst); err != nil {
		return err
	}
	tr := t.cluster.trace.Rank(t.rank)
	span := tr.Begin()
	// Copy at the send boundary: the receiver must never alias our buffer.
	// The copy is drawn from the payload pool; the receiver gives it back
	// with Release once consumed.
	payload := GetBuf(len(data))
	copy(payload, data)
	codec := codecFor(t.cluster.codec, tag)
	applyCodec(codec, payload)
	t.stats.recordPeer(t.rank, dst, tag.Kind, len(data), codec.bytesPerElem())
	t.cluster.boxes[dst].deliver(msgKey{src: t.rank, tag: tag}, payload)
	tr.End(span, trace.CodeSend, int64(tag.Kind), int64(dst))
	return nil
}

// SendOwned implements Transport: the donated payload is delivered to the
// receiver without a copy — the zero-copy handoff every gradient hop rides.
// A payload its sender still shares (Retain: a weight chunk relayed while the
// stage computes out of it) is delivered as a private copy instead, so ranks
// never alias each other's memory; that copy is the one memmove a weight hop
// costs in process. The caller must have drawn payload from GetBuf and must
// not touch it again; the receiver Releases it as usual.
func (t *inprocTransport) SendOwned(dst int, tag Tag, payload []float32) error {
	if dst < 0 || dst >= t.Size() {
		Release(payload)
		return fmt.Errorf("comm: send to invalid rank %d", dst)
	}
	if err := t.cluster.peerError(t.rank, dst); err != nil {
		Release(payload)
		return err
	}
	tr := t.cluster.trace.Rank(t.rank)
	span := tr.Begin()
	payload = private(payload)
	codec := codecFor(t.cluster.codec, tag)
	applyCodec(codec, payload)
	t.stats.recordPeer(t.rank, dst, tag.Kind, len(payload), codec.bytesPerElem())
	t.cluster.boxes[dst].deliver(msgKey{src: t.rank, tag: tag}, payload)
	tr.End(span, trace.CodeSend, int64(tag.Kind), int64(dst))
	return nil
}

// Forward implements Transport. In process there is no checksum to reuse,
// so a relay is a donation like any other.
func (t *inprocTransport) Forward(dst int, tag Tag, payload []float32) error {
	return t.SendOwned(dst, tag, payload)
}

// SealsF32 implements Transport: nothing in process is checksummed.
func (t *inprocTransport) SealsF32(Tag) bool { return false }

func (t *inprocTransport) Recv(src int, tag Tag) ([]float32, error) {
	return t.RecvTimeout(src, tag, 0)
}

func (t *inprocTransport) RecvTimeout(src int, tag Tag, timeout time.Duration) ([]float32, error) {
	if src < 0 || src >= t.Size() {
		return nil, fmt.Errorf("comm: recv from invalid rank %d", src)
	}
	box := t.cluster.boxes[t.rank]
	// A receive naming a dead peer fails fast with the typed evidence —
	// after handing over anything the peer delivered before it died.
	if err := t.cluster.peerError(t.rank, src); err != nil {
		if payload, ok := box.tryTake(msgKey{src: src, tag: tag}); ok {
			return payload, nil
		}
		return nil, err
	}
	tr := t.cluster.trace.Rank(t.rank)
	span := tr.Begin()
	payload, err := box.take(msgKey{src: src, tag: tag}, timeout)
	tr.End(span, trace.CodeRecv, int64(tag.Kind), int64(src))
	if err != nil && errors.Is(err, ErrTimeout) {
		t.stats.recordTimeout(src)
	}
	return payload, err
}

// Close implements Transport: this rank dies (see Cluster).
func (t *inprocTransport) Close() error {
	t.cluster.kill(t.rank)
	return nil
}

// BeginRecovery implements Transport, as TCPTransport.BeginRecovery does:
// it reopens this rank's mailbox for the repair exchanges, unless this
// rank itself closed, and returns the dead peers in ascending order.
func (t *inprocTransport) BeginRecovery() []int {
	c := t.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	var dead []int
	for r, d := range c.dead {
		if d && r != t.rank {
			dead = append(dead, r)
		}
	}
	if !c.dead[t.rank] {
		c.boxes[t.rank].reopen()
	}
	return dead
}
