package comm

import (
	"errors"
	"fmt"
	"time"

	"weipipe/internal/trace"
)

// Cluster is an in-process message fabric connecting n ranks that run as
// goroutines in one address space. It is the default substrate for tests,
// examples and the functional-equivalence suite.
type Cluster struct {
	boxes []*mailbox
	stats []*Stats
	codec CodecFunc
	trace *trace.Set
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
	c := &Cluster{boxes: make([]*mailbox, n), stats: make([]*Stats, n), codec: codec}
	for i := range c.boxes {
		c.boxes[i] = newMailbox()
		c.stats[i] = newStats()
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

type inprocTransport struct {
	cluster *Cluster
	rank    int
	stats   *Stats
}

// CommStats implements Meter.
func (t *inprocTransport) CommStats() *Stats { return t.stats }

func (t *inprocTransport) Rank() int { return t.rank }
func (t *inprocTransport) Size() int { return len(t.cluster.boxes) }

// WireCodec implements CodecProvider: the codec a payload sent under tag is
// rounded through at the send boundary.
func (t *inprocTransport) WireCodec(tag Tag) WireCodec { return codecFor(t.cluster.codec, tag) }

func (t *inprocTransport) Send(dst int, tag Tag, data []float32) error {
	if dst < 0 || dst >= t.Size() {
		return fmt.Errorf("comm: send to invalid rank %d", dst)
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

// SendOwned implements OwnedSender: the donated payload is delivered to the
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

func (t *inprocTransport) Recv(src int, tag Tag) ([]float32, error) {
	return t.RecvTimeout(src, tag, 0)
}

func (t *inprocTransport) RecvTimeout(src int, tag Tag, timeout time.Duration) ([]float32, error) {
	if src < 0 || src >= t.Size() {
		return nil, fmt.Errorf("comm: recv from invalid rank %d", src)
	}
	tr := t.cluster.trace.Rank(t.rank)
	span := tr.Begin()
	payload, err := t.cluster.boxes[t.rank].take(msgKey{src: src, tag: tag}, timeout)
	tr.End(span, trace.CodeRecv, int64(tag.Kind), int64(src))
	if err != nil && errors.Is(err, ErrTimeout) {
		t.stats.recordTimeout(src)
	}
	return payload, err
}

func (t *inprocTransport) Close() error {
	t.cluster.boxes[t.rank].close()
	return nil
}
