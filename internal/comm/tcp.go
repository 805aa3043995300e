package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"weipipe/internal/trace"
)

// TCPTransport is a Transport over a full TCP mesh: every pair of ranks
// shares one connection. The transport is hardened against the failures a
// commodity-Ethernet deployment sees (the paper trains over 10 Gb
// Ethernet):
//
//   - every frame carries a per-link sequence number and a CRC32; the
//     receiver delivers frames in sequence order, discards duplicates and
//     corrupt frames, and acknowledges cumulatively;
//   - the sender keeps frames until they are acknowledged and retransmits
//     them when acknowledgements stall (or after a reconnection), so frame
//     loss, duplication and reordering below the transport — including the
//     deterministic ChaosConfig injector used by the chaos test suite —
//     never reach the training protocol;
//   - heartbeats flow on idle links; a broken connection is re-dialed with
//     bounded exponential backoff, and a peer silent past PeerDeadTimeout
//     is declared dead, failing every pending receive with *PeerDeadError
//     so blocked runners abort cleanly instead of hanging.
//
// Send keeps the same never-blocks contract as the in-process transport;
// Recv blocks until a matching message arrives, a deadline expires, or the
// transport fails.
type TCPTransport struct {
	rank  int
	size  int
	opts  TCPOptions
	box   *mailbox
	links []*tcpLink // index by peer rank; links[rank] == nil
	ln    *net.TCPListener
	stats *Stats

	deadMu    sync.Mutex
	deadPeers map[int]error // peers declared dead, with the declaring cause

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// TCPOptions tunes the failure model of a TCP mesh. The zero value selects
// production defaults; tests shrink the timeouts.
type TCPOptions struct {
	// Epoch is the cluster incarnation this endpoint belongs to. It rides
	// in the connection handshake and in every frame header; connections
	// and frames from any other epoch are rejected (see the epoch fence in
	// frame.go). Elastic repair bumps the epoch when the survivors rebuild
	// the mesh, so a stale segment of a partitioned ring can neither
	// rejoin nor refresh anyone's liveness. Default 0.
	Epoch uint32
	// DialTimeout bounds the whole initial mesh bring-up: a peer that never
	// comes up yields a per-peer error instead of hanging forever.
	// Default 15s.
	DialTimeout time.Duration
	// HeartbeatInterval is the idle-link heartbeat period. Default 500ms.
	HeartbeatInterval time.Duration
	// PeerDeadTimeout is how long a peer may stay silent (no frames, no
	// successful reconnection) before it is declared dead. Default 10s.
	PeerDeadTimeout time.Duration
	// RetransmitTimeout is how long the sender waits for acknowledgement
	// progress before re-sending unacknowledged frames. Default 250ms.
	RetransmitTimeout time.Duration
	// ReconnectBackoff is the initial re-dial backoff; it doubles per
	// attempt, capped at 500ms. Default 20ms.
	ReconnectBackoff time.Duration
	// MaxPayloadElems bounds the per-frame payload the decoder will accept.
	// Default 1<<28 elements (1 GiB).
	MaxPayloadElems int
	// Codec selects the per-Tag wire codec (nil means f32 everywhere). With
	// BeltBF16 the weight/grad belt frames travel at half width; the codec
	// rides in the frame header, so the receiver needs no configuration.
	Codec CodecFunc
	// Chaos, when non-nil, injects deterministic frame-level faults on every
	// outgoing data frame — the fault layer the reliability machinery must
	// mask. Never set it outside tests.
	Chaos *ChaosConfig
	// Trace, when non-nil, receives send/recv/retransmit spans for this
	// rank. Each process owns one rank, so the option carries a single
	// tracer rather than a Set.
	Trace *trace.Tracer
}

// defaultSendWindow bounds the unacknowledged frames in flight per link.
// Training traffic is few-but-large frames (whole weight chunks), so a
// small frame window costs no throughput while keeping the retransmit
// buffer — and the data an abrupt disconnect can lose — bounded.
const defaultSendWindow = 32

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.PeerDeadTimeout <= 0 {
		o.PeerDeadTimeout = 10 * time.Second
	}
	if o.RetransmitTimeout <= 0 {
		o.RetransmitTimeout = 250 * time.Millisecond
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 20 * time.Millisecond
	}
	if o.MaxPayloadElems <= 0 {
		o.MaxPayloadElems = defaultMaxFrameElems
	}
	return o
}

// ChaosConfig injects deterministic faults into a link's outgoing data
// frames, below the sequence/retransmission layer: the transport must mask
// every one of them. Decisions are keyed by (Seed, src, dst, frame
// ordinal) so a run's fault pattern depends only on the seed and the
// traffic.
type ChaosConfig struct {
	Seed uint64
	// Drop discards the frame (retransmission must recover it).
	Drop float64
	// Dup writes the frame twice (dedup must discard the copy).
	Dup float64
	// Reorder holds the frame and writes it after the next one.
	Reorder float64
	// Corrupt flips one payload byte (CRC must reject the frame).
	Corrupt float64
	// DelayProb sleeps the writer up to MaxDelay before the frame.
	DelayProb float64
	MaxDelay  time.Duration
	// ResetEvery forcibly closes the connection after every n-th data frame
	// (0 = never), exercising reconnection + retransmission.
	ResetEvery int
}

// DialTCP builds the mesh endpoint for rank with default options. addrs
// lists each rank's listen address (host:port); rank listens on
// addrs[rank], accepts connections from higher ranks and dials all lower
// ranks. The call returns once the mesh is fully connected, or fails with
// a per-peer error when the bring-up deadline expires. All ranks must call
// DialTCP concurrently.
func DialTCP(rank int, addrs []string) (*TCPTransport, error) {
	return DialTCPOpts(rank, addrs, TCPOptions{})
}

// DialTCPOpts is DialTCP with explicit failure-model options.
func DialTCPOpts(rank int, addrs []string, opts TCPOptions) (*TCPTransport, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("comm: rank %d out of range of %d addrs", rank, size)
	}
	opts = opts.withDefaults()
	t := &TCPTransport{
		rank:      rank,
		size:      size,
		opts:      opts,
		box:       newMailbox(),
		links:     make([]*tcpLink, size),
		stats:     newStats(),
		deadPeers: make(map[int]error),
		done:      make(chan struct{}),
	}
	t.box.stats = t.stats
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", addrs[rank], err)
	}
	t.ln = ln.(*net.TCPListener)

	now := time.Now()
	deadline := now.Add(opts.DialTimeout)
	for peer := 0; peer < size; peer++ {
		if peer == rank {
			continue
		}
		l := &tcpLink{
			t:           t,
			peer:        peer,
			addr:        addrs[peer],
			dialer:      peer < rank,
			rexpect:     1,
			nextSeq:     1,
			window:      defaultSendWindow,
			ooo:         make(map[uint64]oooMsg),
			lastContact: now,
			up:          make(chan struct{}),
		}
		if ch := opts.Chaos; ch != nil && ch.ResetEvery > 0 && ch.ResetEvery/2 < l.window {
			// Guaranteed progress under a write-count-keyed connection
			// killer needs the in-flight set strictly smaller than the kill
			// period: everything acknowledged before a reset is retired for
			// good, everything in flight may die with the connection.
			l.window = ch.ResetEvery / 2
			if l.window < 1 {
				l.window = 1
			}
		}
		l.cond = sync.NewCond(&l.mu)
		t.links[peer] = l
		t.wg.Add(1)
		go l.writeLoop()
	}

	// Accept connections from higher ranks — during bring-up and, for
	// reconnections, for the transport's whole lifetime.
	t.wg.Add(1)
	go t.acceptLoop(deadline)

	// Dial all lower ranks (with retry: peers may not be listening yet).
	errc := make(chan error, size)
	for peer := 0; peer < rank; peer++ {
		t.wg.Add(1)
		go func(peer int) {
			defer t.wg.Done()
			if err := t.dialPeer(peer, deadline); err != nil {
				errc <- err
			}
		}(peer)
	}

	// Wait for every link to come up once, the deadline, or a dial error.
	for {
		allUp := true
		for peer, l := range t.links {
			if l == nil {
				continue
			}
			select {
			case <-l.up:
			default:
				allUp = false
				if time.Now().After(deadline) {
					t.Close()
					return nil, fmt.Errorf("comm: rank %d: peer %d (%s) not connected after %v",
						rank, peer, addrs[peer], opts.DialTimeout)
				}
			}
		}
		if allUp {
			break
		}
		select {
		case err := <-errc:
			t.Close()
			return nil, err
		case <-time.After(5 * time.Millisecond):
		}
	}

	t.wg.Add(1)
	go t.monitorLoop()
	return t, nil
}

// dialPeer establishes (once) the initial connection to a lower rank,
// retrying until deadline. Definitive failure is returned.
func (t *TCPTransport) dialPeer(peer int, deadline time.Time) error {
	l := t.links[peer]
	var lastErr error
	for {
		if t.isClosed() {
			return nil
		}
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = errors.New("no attempt completed")
			}
			return fmt.Errorf("comm: dial rank %d (%s): gave up after %v: %w",
				peer, l.addr, t.opts.DialTimeout, lastErr)
		}
		conn, err := net.DialTimeout("tcp", l.addr, 250*time.Millisecond)
		if err != nil {
			lastErr = err
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err := l.completeHello(conn); err != nil {
			conn.Close()
			if errors.Is(err, errStaleEpoch) {
				// The peer is another cluster incarnation: retrying cannot
				// help, and joining it would breach the split-brain fence.
				return fmt.Errorf("comm: dial rank %d (%s): %w", peer, l.addr, err)
			}
			lastErr = err
			time.Sleep(10 * time.Millisecond)
			continue
		}
		l.install(conn)
		return nil
	}
}

// acceptLoop accepts handshakes from higher ranks for the transport's
// lifetime; during bring-up the listener carries the overall deadline so a
// missing peer cannot park the goroutine forever.
func (t *TCPTransport) acceptLoop(bringup time.Time) {
	defer t.wg.Done()
	for {
		if t.isClosed() {
			return
		}
		if t.meshUp() {
			t.ln.SetDeadline(time.Time{})
		} else {
			t.ln.SetDeadline(bringup)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if !t.meshUp() {
					return // bring-up failed; DialTCPOpts reports the missing peer
				}
				continue
			}
			return // listener closed
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		var hdr [12]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		peer := int(binary.LittleEndian.Uint32(hdr[0:4]))
		if peer <= t.rank || peer >= t.size || binary.LittleEndian.Uint32(hdr[8:12]) != 0 {
			// The third word is reserved as zero: earlier builds dialled a
			// second, control-only connection with 1 there, and admitting
			// it would replace the link's data connection.
			conn.Close()
			continue
		}
		if epoch := binary.LittleEndian.Uint32(hdr[4:8]); epoch != t.opts.Epoch {
			// A connection from another cluster incarnation: a zombie from a
			// partitioned-away segment (or a badly stale reconnect). Refuse
			// it — the epoch fence must hold at admission, not just per
			// frame.
			t.stats.recordStaleEpoch(peer)
			conn.Close()
			continue
		}
		// Admission ack: echo our own hello so the dialer learns it was
		// accepted (and at which epoch) before it considers the link up.
		if _, err := conn.Write(t.helloBytes()); err != nil {
			conn.Close()
			continue
		}
		t.links[peer].install(conn)
	}
}

// errStaleEpoch marks a handshake refused by the epoch fence: the peer
// answered from a different cluster incarnation. Dial paths treat it as
// definitive — retrying cannot reconcile two incarnations.
var errStaleEpoch = errors.New("comm: epoch fence rejected handshake")

// completeHello runs the dialer side of the connection handshake: write
// our rank|epoch hello, then wait for the acceptor to echo its own as the
// admission ack. Without the ack the dialer cannot distinguish "admitted"
// from "silently refused by the epoch fence", and would install a link
// the peer has already discarded.
func (l *tcpLink) completeHello(conn net.Conn) error {
	if _, err := conn.Write(l.t.helloBytes()); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	var ack [12]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	if got := int(binary.LittleEndian.Uint32(ack[0:4])); got != l.peer {
		return fmt.Errorf("comm: handshake ack claims rank %d, want %d", got, l.peer)
	}
	if epoch := binary.LittleEndian.Uint32(ack[4:8]); epoch != l.t.opts.Epoch {
		l.t.stats.recordStaleEpoch(l.peer)
		return fmt.Errorf("%w: peer %d at epoch %d, local epoch %d",
			errStaleEpoch, l.peer, epoch, l.t.opts.Epoch)
	}
	return nil
}

// helloBytes builds the connection handshake: rank u32 | epoch u32 |
// zero u32. The acceptor validates all three, then echoes its own hello
// as the admission ack.
func (t *TCPTransport) helloBytes() []byte {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(t.rank))
	binary.LittleEndian.PutUint32(hdr[4:8], t.opts.Epoch)
	return hdr[:]
}

// meshUp reports whether every link has connected at least once.
func (t *TCPTransport) meshUp() bool {
	for _, l := range t.links {
		if l == nil {
			continue
		}
		select {
		case <-l.up:
		default:
			return false
		}
	}
	return true
}

func (t *TCPTransport) isClosed() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// monitorLoop drives heartbeats, retransmission timeouts, heartbeat-miss
// accounting and peer-death detection for every link.
func (t *TCPTransport) monitorLoop() {
	defer t.wg.Done()
	period := t.opts.HeartbeatInterval / 2
	if rto := t.opts.RetransmitTimeout / 2; rto < period {
		period = rto
	}
	if period < time.Millisecond {
		period = time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-ticker.C:
		}
		now := time.Now()
		for _, l := range t.links {
			if l != nil {
				l.tick(now)
			}
		}
	}
}

// LoopbackAddrs returns n distinct 127.0.0.1 addresses on free ports, for
// tests and single-machine multi-process examples.
func LoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// Rank implements Transport.
func (t *TCPTransport) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCPTransport) Size() int { return t.size }

// CommStats implements Meter.
func (t *TCPTransport) CommStats() *Stats { return t.stats }

// WireCodec implements CodecProvider: the codec payloads sent under tag are
// encoded with on the wire.
func (t *TCPTransport) WireCodec(tag Tag) WireCodec { return codecFor(t.opts.Codec, tag) }

// Send implements Transport. The payload is copied at the send boundary
// (the caller keeps its slice) into a pooled buffer that is then donated;
// sealing and checksumming happen later, on the link's writer goroutine, so
// the compute thread pays one memcpy and never a CRC.
func (t *TCPTransport) Send(dst int, tag Tag, data []float32) error {
	payload := GetBuf(len(data))
	copy(payload, data)
	return t.SendOwned(dst, tag, payload)
}

// SendOwned implements OwnedSender: the donated payload is enqueued for the
// link writer without a copy, its own bytes are what the socket reads, and
// the link's reference is released when the peer acknowledges the frame (or
// at shutdown or peer death). The writer only ever reads a payload, so one
// the sender still shares (Retain) goes out just the same while the sender
// computes out of it. Self-sends deliver the buffer straight to the local
// mailbox.
func (t *TCPTransport) SendOwned(dst int, tag Tag, payload []float32) error {
	tr := t.opts.Trace
	span := tr.Begin()
	defer tr.End(span, trace.CodeSend, int64(tag.Kind), int64(dst))
	codec := codecFor(t.opts.Codec, tag)
	t.stats.recordPeer(t.rank, dst, tag.Kind, len(payload), codec.bytesPerElem())
	if dst == t.rank {
		// Self-sends never cross the wire, but a lossy codec must round them
		// exactly like the mesh does or ranks would observe transport-
		// dependent values. A payload the sender still shares is copied: the
		// mailbox hands it to a receiver who owns what it takes.
		payload = private(payload)
		applyCodec(codec, payload)
		t.box.deliver(msgKey{src: t.rank, tag: tag}, payload)
		return nil
	}
	if dst < 0 || dst >= t.size {
		Release(payload)
		return fmt.Errorf("comm: send to invalid rank %d", dst)
	}
	if t.isClosed() {
		Release(payload)
		return ErrClosed
	}
	return t.links[dst].send(tag, codec, payload)
}

// Recv implements Transport.
func (t *TCPTransport) Recv(src int, tag Tag) ([]float32, error) {
	return t.RecvTimeout(src, tag, 0)
}

// RecvTimeout implements Transport.
func (t *TCPTransport) RecvTimeout(src int, tag Tag, timeout time.Duration) ([]float32, error) {
	if src < 0 || src >= t.size {
		return nil, fmt.Errorf("comm: recv from invalid rank %d", src)
	}
	// After BeginRecovery the mailbox accepts takes again, but a receive
	// naming a dead peer must keep failing fast with the typed evidence —
	// not burn a whole timeout on a rank that can never answer.
	if src != t.rank {
		t.deadMu.Lock()
		cause, dead := t.deadPeers[src]
		t.deadMu.Unlock()
		if dead {
			if payload, ok := t.box.tryTake(msgKey{src: src, tag: tag}); ok {
				return payload, nil // already delivered before the death
			}
			return nil, &PeerDeadError{Rank: src, Cause: cause}
		}
	}
	tr := t.opts.Trace
	span := tr.Begin()
	payload, err := t.box.take(msgKey{src: src, tag: tag}, timeout)
	tr.End(span, trace.CodeRecv, int64(tag.Kind), int64(src))
	if err != nil && errors.Is(err, ErrTimeout) {
		t.stats.recordTimeout(src)
	}
	return payload, err
}

// Flush blocks until every frame queued for a live peer has been
// acknowledged (or timeout expires, or the endpoint closes). Close drops
// unacknowledged frames by design — it models an abrupt kill — so a clean
// shutdown must flush first, or the tail of an exchange protocol can
// vanish from under a peer that is still receiving. Links to peers the
// failure detector has declared dead are skipped: their backlog can never
// drain.
func (t *TCPTransport) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		for _, l := range t.links {
			if l == nil {
				continue
			}
			l.mu.Lock()
			if !l.dead && !l.closed {
				pending += len(l.sendq)
			}
			l.mu.Unlock()
		}
		if pending == 0 || t.isClosed() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comm: flush timed out with %d frames unacknowledged", pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// FlushTransport drains t's send queues when the transport supports it
// (see TCPTransport.Flush); in-process transports deliver synchronously
// and need no flush.
func FlushTransport(t Transport, timeout time.Duration) error {
	if f, ok := t.(interface{ Flush(time.Duration) error }); ok {
		return f.Flush(timeout)
	}
	return nil
}

// Close implements Transport. It fails all pending receives, tears down
// every connection and waits for every background goroutine to exit — a
// closed transport leaks nothing.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		t.box.close()
		close(t.done)
		t.ln.Close()
		for _, l := range t.links {
			if l != nil {
				l.shutdown()
			}
		}
		t.wg.Wait()
	})
	return nil
}

// peerDead fails the whole endpoint: the training protocol cannot make
// progress without the peer, so every blocked receive must abort. The
// death is also recorded so BeginRecovery can report it after reopening
// the mailbox for the membership-agreement exchange.
func (t *TCPTransport) peerDead(peer int, cause error) {
	t.deadMu.Lock()
	if _, seen := t.deadPeers[peer]; !seen {
		t.deadPeers[peer] = cause
	}
	t.deadMu.Unlock()
	t.box.closeWithErr(&PeerDeadError{Rank: peer, Cause: cause})
}

// DeadPeers lists the peers this endpoint's failure detector has declared
// dead, in ascending rank order.
func (t *TCPTransport) DeadPeers() []int {
	t.deadMu.Lock()
	out := make([]int, 0, len(t.deadPeers))
	for r := range t.deadPeers {
		out = append(out, r)
	}
	t.deadMu.Unlock()
	sort.Ints(out)
	return out
}

// BeginRecovery transitions the endpoint from "failed" to "recovering":
// the mailbox, wholesale-closed by the first peer death so every blocked
// runner aborts, is reopened so the survivors can exchange membership
// evidence over the still-healthy links. It returns the locally-observed
// dead set. Sends and receives naming a dead peer keep failing fast with
// *PeerDeadError; a further peer death during recovery closes the mailbox
// again (call BeginRecovery again to continue). After a local Close the
// mailbox stays closed and BeginRecovery only reports the dead set.
func (t *TCPTransport) BeginRecovery() []int {
	dead := t.DeadPeers()
	t.box.reopen()
	return dead
}

// Blackhole makes this endpoint drop every outgoing byte (data, acks,
// heartbeats, reconnection handshakes) to the given peers for d — a
// deterministic network-partition injector. Incoming traffic still
// flows, so an asymmetric partition is one-sided Blackhole and a full
// partition is Blackhole on both sides. Frames queued during the window
// stay in the retransmit queue: a blackout shorter than PeerDeadTimeout
// heals by retransmission, a longer one fires the failure detector.
func (t *TCPTransport) Blackhole(peers []int, d time.Duration) {
	until := time.Now().Add(d)
	for _, p := range peers {
		if p < 0 || p >= t.size || p == t.rank || t.links[p] == nil {
			continue
		}
		l := t.links[p]
		l.mu.Lock()
		l.blackUntil = until
		l.mu.Unlock()
	}
}

// ---- per-link state ------------------------------------------------------

// oooMsg is a received data frame waiting for its predecessors.
type oooMsg struct {
	tag     Tag
	payload []float32
}

// tcpLink owns one peer connection: the outgoing retransmit queue, the
// incoming sequence/dedup state, and the reconnection machinery.
type tcpLink struct {
	t      *TCPTransport
	peer   int
	addr   string
	dialer bool // this side re-dials after a break

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn
	gen  int // connection generation; stale goroutines detect replacement

	// outgoing: sendq[:sent] written on the current connection (but not yet
	// acknowledged), sendq[sent:] pending. Acknowledged frames are popped
	// from the front; a reconnection or retransmission timeout resets sent
	// to 0, re-sending everything unacknowledged. At most `window` frames
	// are in flight: an abrupt connection loss can discard everything the
	// peer has not yet consumed (TCP reset semantics), so unbounded bursts
	// would let a repeating connection-killing fault erase each burst whole
	// and re-send it forever — the window keeps acknowledged progress
	// accumulating between failures. A frame's payload stays with the link
	// until it is acknowledged: popped frames move to retired, and the
	// writer — the only goroutine that touches payloads, and possibly still
	// mid-write on one — hands them back to the pool.
	sendq       []*outFrame
	retired     []*outFrame // acknowledged; the writer releases their payloads
	sent        int
	window      int
	nextSeq     uint64
	lastAckTime time.Time
	ackDirty    bool // an ack should be sent
	hbDue       bool // a heartbeat should be sent

	// incoming
	rexpect uint64 // next expected data sequence
	ooo     map[uint64]oooMsg

	lastContact time.Time // last frame received or connection established
	lastBeat    time.Time // last heartbeat queued
	lastMiss    time.Time // last heartbeat-miss counted
	downSince   time.Time // zero while connected
	quietUntil  time.Time // post-reconnect window where only ctl frames flow
	blackUntil  time.Time // injected-partition window: no bytes leave the link

	redialing bool
	dead      bool
	closed    bool

	up     chan struct{} // closed on first successful connection
	upOnce sync.Once

	// chaos state (writer-side)
	chaosN    uint64
	chaosHeld []byte
}

// send enqueues one data frame, taking ownership of payload. Sealing is
// deferred to the writer goroutine (writeLoop), so the caller never blocks
// on checksumming or the socket.
func (l *tcpLink) send(tag Tag, codec WireCodec, payload []float32) error {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		Release(payload)
		return &PeerDeadError{Rank: l.peer}
	}
	if l.closed {
		l.mu.Unlock()
		Release(payload)
		return ErrClosed
	}
	seq := l.nextSeq
	l.nextSeq++
	if len(l.sendq) == 0 {
		l.lastAckTime = time.Now()
	}
	l.sendq = append(l.sendq, &outFrame{seq: seq, tag: tag, codec: codec, payload: payload})
	l.mu.Unlock()
	l.cond.Broadcast()
	return nil
}

// install adopts a new connection (initial or reconnect) and spawns its
// read loop.
func (l *tcpLink) install(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	l.mu.Lock()
	if l.closed || l.dead {
		l.mu.Unlock()
		conn.Close()
		return
	}
	if l.conn != nil {
		l.conn.Close() // replaced by a fresher connection
	}
	reconnect := !l.downSince.IsZero()
	l.gen++
	gen := l.gen
	l.conn = conn
	l.downSince = time.Time{}
	l.sent = 0 // retransmit everything unacknowledged on the new connection
	// Re-send the cumulative ack too: the previous one may have died with the
	// old connection, and without it the peer re-sends its whole backlog
	// forever (acks are the only thing that retire its queue).
	if l.rexpect > 1 {
		l.ackDirty = true
	}
	now := time.Now()
	if reconnect {
		// Hold data back briefly so both sides' control frames (the
		// re-armed acks above) cross before retransmission floods the new
		// connection. Without the pause, a fault pattern that kills
		// connections by write count can starve the reverse-direction ack
		// forever: each incarnation dies before the peer's writer wakes,
		// and the same backlog is re-sent for eternity.
		l.quietUntil = now.Add(l.t.opts.RetransmitTimeout / 16)
	}
	l.lastContact = now
	l.lastAckTime = now
	l.mu.Unlock()
	l.upOnce.Do(func() { close(l.up) })
	if reconnect {
		l.t.stats.recordReconnect(l.peer)
	}
	l.t.wg.Add(1)
	go l.readLoop(conn, gen)
	l.cond.Broadcast()
}

// markDown records a broken connection (ignoring stale generations) and,
// on the dialing side, starts the re-dial loop.
func (l *tcpLink) markDown(gen int) {
	l.mu.Lock()
	if l.closed || l.dead || gen != l.gen || l.conn == nil {
		l.mu.Unlock()
		return
	}
	l.conn.Close()
	l.conn = nil
	l.downSince = time.Now()
	l.sent = 0
	startRedial := l.dialer && !l.redialing
	if startRedial {
		l.redialing = true
	}
	l.mu.Unlock()
	if startRedial {
		l.t.wg.Add(1)
		go l.redialLoop()
	}
}

// redialLoop re-establishes a broken connection with exponential backoff,
// bounded by PeerDeadTimeout (the monitor declares the peer dead then).
func (l *tcpLink) redialLoop() {
	defer l.t.wg.Done()
	defer func() {
		l.mu.Lock()
		l.redialing = false
		l.mu.Unlock()
	}()
	backoff := l.t.opts.ReconnectBackoff
	const maxBackoff = 500 * time.Millisecond
	for {
		l.mu.Lock()
		stop := l.closed || l.dead || l.conn != nil
		hole := time.Until(l.blackUntil)
		l.mu.Unlock()
		if stop || l.t.isClosed() {
			return
		}
		if hole > 0 {
			// An injected partition blocks the reconnection handshake too —
			// a partitioned host cannot reach the peer's listener either.
			if hole > 5*time.Millisecond {
				hole = 5 * time.Millisecond
			}
			select {
			case <-l.t.done:
				return
			case <-time.After(hole):
			}
			continue
		}
		conn, err := net.DialTimeout("tcp", l.addr, backoff+50*time.Millisecond)
		if err == nil {
			if herr := l.completeHello(conn); herr == nil {
				l.install(conn)
				return
			}
			// A stale-epoch refusal keeps backing off like any other failure:
			// the monitor will declare the peer dead when the grace window
			// runs out, which is exactly what a zombie peer deserves.
			conn.Close()
		}
		select {
		case <-l.t.done:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// shutdown closes the link permanently (local Close).
func (l *tcpLink) shutdown() {
	l.mu.Lock()
	l.closed = true
	if l.conn != nil {
		l.conn.Close()
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// tick runs the link's periodic duties: heartbeat emission, retransmission
// on ack stall, heartbeat-miss accounting and peer-death declaration.
func (l *tcpLink) tick(now time.Time) {
	opts := &l.t.opts
	var signal bool
	var deadCause error
	l.mu.Lock()
	if l.closed || l.dead {
		l.mu.Unlock()
		return
	}
	// Heartbeat: keep idle links demonstrably alive.
	if l.conn != nil && now.Sub(l.lastBeat) >= opts.HeartbeatInterval {
		l.hbDue = true
		l.lastBeat = now
		signal = true
	}
	// Heartbeat misses: count silence in heartbeat units (observability).
	if l.conn != nil && now.Sub(l.lastContact) > 2*opts.HeartbeatInterval &&
		now.Sub(l.lastMiss) > 2*opts.HeartbeatInterval {
		l.lastMiss = now
		l.t.stats.recordHeartbeatMiss(l.peer)
	}
	// Retransmission: acks stalled with frames outstanding.
	if l.conn != nil && l.sent > 0 && now.Sub(l.lastAckTime) > opts.RetransmitTimeout {
		l.t.stats.recordRetransmit(l.peer, int64(l.sent))
		l.t.opts.Trace.Instant(trace.CodeRetransmit, int64(l.peer), int64(l.sent))
		l.sent = 0
		l.lastAckTime = now
		signal = true
	}
	// Death: silent past the grace window (connected-but-mute or
	// disconnected with every reconnection attempt failed).
	if now.Sub(l.lastContact) > opts.PeerDeadTimeout {
		l.dead = true
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
		if l.downSince.IsZero() {
			deadCause = fmt.Errorf("no traffic for %v", opts.PeerDeadTimeout)
		} else {
			deadCause = fmt.Errorf("disconnected %v, reconnection failed", now.Sub(l.downSince).Round(time.Millisecond))
		}
	}
	l.mu.Unlock()
	if deadCause != nil {
		l.cond.Broadcast()
		l.t.peerDead(l.peer, deadCause)
		return
	}
	if signal {
		l.cond.Broadcast()
	}
}

// writeLoop is the link's single writer: it drains control frames (acks,
// heartbeats) and unsent data frames onto the current connection. Data
// frames are sealed here — outside the link lock and off the compute
// thread — and the whole batch (control + data) goes out as a single
// net.Buffers writev of headers and the payloads' own bytes: one syscall
// per flush instead of one per frame, and no copy on the way. The chaos
// injector, when armed, takes the per-frame path instead so its
// write-count-keyed fault decisions stay deterministic.
func (l *tcpLink) writeLoop() {
	defer l.t.wg.Done()
	for {
		l.mu.Lock()
		for {
			l.releaseRetiredLocked()
			if l.closed || l.dead {
				break
			}
			if l.conn != nil && (l.ackDirty || l.hbDue ||
				(l.sent < len(l.sendq) && l.sent < l.window)) {
				break
			}
			l.cond.Wait()
		}
		if l.closed || l.dead {
			// Nothing will be written again: every payload the link still
			// retains goes back to the pool.
			for _, f := range l.sendq {
				f.release()
			}
			l.mu.Unlock()
			return
		}
		if hole := time.Until(l.blackUntil); hole > 0 {
			// Injected partition: nothing leaves the link — no data, no acks,
			// no heartbeats. Dirty flags stay set so the backlog drains the
			// moment the window closes.
			l.mu.Unlock()
			if hole > 5*time.Millisecond {
				hole = 5 * time.Millisecond
			}
			time.Sleep(hole)
			continue
		}
		conn, gen := l.conn, l.gen
		epoch := l.t.opts.Epoch
		ctl := l.claimCtlLocked()
		var frames []*outFrame
		quiet := time.Until(l.quietUntil)
		if quiet <= 0 {
			for l.sent < len(l.sendq) && l.sent < l.window {
				frames = append(frames, l.sendq[l.sent])
				l.sent++
			}
		}
		l.mu.Unlock()

		// Lazy seal: only this goroutine touches a frame's payload, header
		// and body after enqueue, so no lock is needed. A retransmitted
		// frame is already sealed and goes out again as it is.
		for _, f := range frames {
			if !f.sealed {
				f.seal(l.t.rank, epoch)
			}
		}

		var err error
		switch {
		case l.t.opts.Chaos != nil:
			// Per-write chaos: ctl frames go plain (the injector only rolls
			// on data writes), data goes frame-per-write as one contiguous
			// image the injector can flip, hold and replay, so its write
			// ordinals stay deterministic for a given traffic pattern.
			for _, f := range ctl {
				if _, err = conn.Write(f.hdr[:]); err != nil {
					break
				}
			}
			for i := 0; err == nil && i < len(frames); i++ {
				l.t.stats.recordWireWrite()
				err = l.writeData(conn, frames[i].image())
			}
		case len(ctl)+len(frames) > 0:
			// Nothing is claimed while data is held back post-reconnect.
			var out net.Buffers
			for _, f := range append(ctl, frames...) {
				out = f.appendTo(out)
			}
			l.t.stats.recordWireWrite()
			_, err = out.WriteTo(conn)
		}
		if err != nil {
			l.markDown(gen)
			continue
		}
		if quiet > 0 {
			// Data is pending but held back post-reconnect; nobody will
			// signal when the window expires, so sleep it off and re-check.
			time.Sleep(quiet)
		}
	}
}

// claimCtlLocked takes the link's pending ack and heartbeat as sealed
// control frames.
func (l *tcpLink) claimCtlLocked() []*outFrame {
	var ctl []*outFrame
	if l.ackDirty {
		l.ackDirty = false
		ctl = append(ctl, newCtlFrame(l.t.rank, ctlAck, l.t.opts.Epoch, int64(l.rexpect-1)))
	}
	if l.hbDue {
		l.hbDue = false
		ctl = append(ctl, newCtlFrame(l.t.rank, ctlHeartbeat, l.t.opts.Epoch, 0))
	}
	return ctl
}

// releaseRetiredLocked hands the payloads of acknowledged frames back to
// the pool. Only the writer calls it, between writes: a frame can be
// acknowledged while this goroutine is still inside the writev that carries
// it (or a retransmitted copy of it), so the ack handler may not.
func (l *tcpLink) releaseRetiredLocked() {
	for i, f := range l.retired {
		f.release()
		l.retired[i] = nil
	}
	l.retired = l.retired[:0]
}

var errChaosReset = errors.New("comm: chaos connection reset")

// writeData writes one data frame, applying the chaos injector when
// configured. Chaos faults never surface to the application: a dropped or
// corrupted frame stays unacknowledged and is retransmitted; a reset breaks
// the connection, which reconnects and retransmits.
func (l *tcpLink) writeData(conn net.Conn, wire []byte) error {
	ch := l.t.opts.Chaos
	if ch == nil {
		_, err := conn.Write(wire)
		return err
	}
	n := l.chaosN
	l.chaosN++

	// Release a previously held frame after this one (the reorder swap).
	var held []byte
	held, l.chaosHeld = l.chaosHeld, nil

	roll := func(lane uint64) float64 { return faultRoll(ch.Seed, l.t.rank, l.peer, n, lane) }
	if ch.DelayProb > 0 && ch.MaxDelay > 0 && roll(3) < ch.DelayProb {
		time.Sleep(time.Duration(roll(4) * float64(ch.MaxDelay)))
	}
	reset := ch.ResetEvery > 0 && (n+1)%uint64(ch.ResetEvery) == 0

	switch {
	case ch.Drop > 0 && roll(0) < ch.Drop:
		// dropped: pretend success; retransmission recovers it
	case ch.Reorder > 0 && roll(2) < ch.Reorder && !reset:
		l.chaosHeld = wire
	case ch.Corrupt > 0 && roll(5) < ch.Corrupt && len(wire) > frameHeaderLen:
		bad := make([]byte, len(wire))
		copy(bad, wire)
		off := frameHeaderLen + int(roll(6)*float64(len(wire)-frameHeaderLen))
		bad[off] ^= 0x40
		if _, err := conn.Write(bad); err != nil {
			return err
		}
	default:
		if _, err := conn.Write(wire); err != nil {
			return err
		}
		if ch.Dup > 0 && roll(1) < ch.Dup {
			if _, err := conn.Write(wire); err != nil {
				return err
			}
		}
	}
	if held != nil {
		if _, err := conn.Write(held); err != nil {
			return err
		}
	}
	if reset {
		conn.Close()
		return errChaosReset
	}
	return nil
}

// readLoop dispatches the connection's incoming frames until it breaks.
func (l *tcpLink) readLoop(conn net.Conn, gen int) {
	defer l.t.wg.Done()
	fr := &frameReader{r: conn, size: l.t.size, maxElems: l.t.opts.MaxPayloadElems}
	for {
		h, payload, synced, err := fr.next()
		if err != nil {
			if synced && errors.Is(err, ErrCorrupt) {
				// frame discarded, stream still aligned: the sender will
				// retransmit when the ack fails to advance
				l.t.stats.recordCorrupt(l.peer)
				continue
			}
			l.markDown(gen)
			return
		}
		if h.epoch != l.t.opts.Epoch {
			// Stale-epoch frame: a sender from another cluster incarnation.
			// Drop it without acknowledging and — critically — without
			// refreshing lastContact: a zombie segment must not be able to
			// keep itself "alive" here, or the fenced-off rank would never
			// be declared dead and the repaired ring would stall on it.
			if payload != nil {
				Release(payload)
			}
			l.t.stats.recordStaleEpoch(l.peer)
			continue
		}
		l.mu.Lock()
		l.lastContact = time.Now()
		switch {
		case h.kind == ctlHeartbeat:
			l.mu.Unlock()
		case h.kind == ctlAck:
			l.handleAckLocked(uint64(h.a))
			l.mu.Unlock()
			l.cond.Broadcast() // ack progress may have opened the send window
		default:
			l.handleDataLocked(h, payload)
			l.mu.Unlock()
			l.cond.Broadcast() // an ack is now dirty
		}
	}
}

// handleAckLocked retires acknowledged frames (cumulative up to upTo).
func (l *tcpLink) handleAckLocked(upTo uint64) {
	popped := 0
	for len(l.sendq) > 0 && l.sendq[0].seq <= upTo {
		l.retired = append(l.retired, l.sendq[0])
		l.sendq = l.sendq[1:]
		popped++
	}
	if popped > 0 {
		l.sent -= popped
		if l.sent < 0 {
			l.sent = 0
		}
		l.lastAckTime = time.Now()
	}
}

// handleDataLocked runs the receive-side of the reliability protocol:
// discard duplicates, buffer out-of-order frames, deliver in sequence
// order, and mark a cumulative ack due.
func (l *tcpLink) handleDataLocked(h frameHeader, payload []float32) {
	if h.seq < l.rexpect {
		l.t.stats.recordDup(l.peer)
		Release(payload)
		l.ackDirty = true // re-ack so the sender stops retransmitting
		return
	}
	if _, dup := l.ooo[h.seq]; dup {
		l.t.stats.recordDup(l.peer)
		Release(payload)
		l.ackDirty = true
		return
	}
	l.ooo[h.seq] = oooMsg{tag: h.tag(), payload: payload}
	for {
		msg, ok := l.ooo[l.rexpect]
		if !ok {
			break
		}
		delete(l.ooo, l.rexpect)
		l.rexpect++
		l.t.box.deliver(msgKey{src: l.peer, tag: msg.tag}, msg.payload)
	}
	l.ackDirty = true
}

var _ Transport = (*TCPTransport)(nil)
