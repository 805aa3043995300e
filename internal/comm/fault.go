package comm

import (
	"sync"
	"time"
)

// FaultTransport wraps any Transport with deterministic, seed-keyed fault
// injection: per-link message delay, drop, duplication and reordering, plus
// a scheduled crash of this endpoint after a chosen number of sends. Every
// fault decision is a pure function of (seed, src, dst, per-link send
// ordinal), so a failure scenario observed once is reproducible in a unit
// test by re-running with the same seed.
//
// FaultTransport injects faults at the *message* level, above any
// reliability machinery — a dropped message is gone. It is the tool for
// testing timeout, abort and recovery paths. To exercise faults that the
// hardened TCP transport must mask transparently (frame drop, duplication,
// reordering, connection reset), use ChaosConfig in DialTCPOpts, which
// injects below the sequence-number/redelivery layer.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu        sync.Mutex
	sends     int64             // total sends, drives the crash schedule
	linkSends map[int]uint64    // per-destination send ordinal, keys the PRNG
	held      map[int][]float32 // one-deep reorder buffer per destination
	heldTag   map[int]Tag
	crashed   bool

	drops, dups, delays, reorders int64
}

// LinkFaults is the per-link fault distribution. Probabilities are in
// [0, 1] and drawn independently per message.
type LinkFaults struct {
	// DropProb silently discards the message.
	DropProb float64
	// DupProb sends the message twice.
	DupProb float64
	// ReorderProb holds the message back and releases it after the next
	// message to the same destination (swapping their order). A held
	// message is flushed by Flush or Close.
	ReorderProb float64
	// DelayProb sleeps the sender for a deterministic fraction of Delay.
	DelayProb float64
	Delay     time.Duration
}

// FaultConfig configures a FaultTransport.
type FaultConfig struct {
	// Seed keys every fault decision.
	Seed uint64
	// Default applies to every outgoing link unless overridden in Links.
	Default LinkFaults
	// Links overrides the fault distribution for specific destinations.
	Links map[int]LinkFaults
	// CrashAtSend, when positive, kills this endpoint at its CrashAtSend-th
	// Send (1-based): the underlying transport is closed (as a dead process
	// would) and every subsequent operation fails with ErrCrashed.
	CrashAtSend int64
	// StallAtSend, when positive, sleeps this endpoint for StallFor at its
	// StallAtSend-th Send (1-based) before delivering — a deterministic
	// single straggler event (GC pause, page fault storm, slow NIC) for
	// watchdog tests.
	StallAtSend int64
	StallFor    time.Duration
}

// NewFaultTransport wraps inner with fault injection.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	return &FaultTransport{
		inner:     inner,
		cfg:       cfg,
		linkSends: make(map[int]uint64),
		held:      make(map[int][]float32),
		heldTag:   make(map[int]Tag),
	}
}

// splitmix64 is the PRNG core: a bijective mixer with good avalanche, so
// consecutive ordinals give independent-looking draws.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// faultRoll returns a deterministic uniform draw in [0, 1) for the given
// (seed, src, dst, ordinal, lane). lane separates independent decisions
// (drop vs dup vs …) for the same message.
func faultRoll(seed uint64, src, dst int, ordinal, lane uint64) float64 {
	h := splitmix64(seed ^ splitmix64(uint64(src)<<32|uint64(uint32(dst))) ^ splitmix64(ordinal<<8|lane))
	return float64(h>>11) / float64(1<<53)
}

func (f *FaultTransport) linkFaults(dst int) LinkFaults {
	if lf, ok := f.cfg.Links[dst]; ok {
		return lf
	}
	return f.cfg.Default
}

// Rank implements Transport.
func (f *FaultTransport) Rank() int { return f.inner.Rank() }

// Size implements Transport.
func (f *FaultTransport) Size() int { return f.inner.Size() }

// CommStats implements Meter when the wrapped transport does.
func (f *FaultTransport) CommStats() *Stats {
	if m, ok := f.inner.(Meter); ok {
		return m.CommStats()
	}
	return nil
}

// WireCodec implements CodecProvider when the wrapped transport does
// (message-level fault injection never re-encodes payloads).
func (f *FaultTransport) WireCodec(tag Tag) WireCodec { return CodecOf(f.inner, tag) }

// Send implements Transport, applying the configured faults.
func (f *FaultTransport) Send(dst int, tag Tag, data []float32) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.sends++
	if f.cfg.CrashAtSend > 0 && f.sends >= f.cfg.CrashAtSend {
		f.crashed = true
		f.mu.Unlock()
		// A crashed process takes its endpoint down with it: peers observe
		// broken connections (or closed mailboxes), not a graceful goodbye.
		f.inner.Close()
		return ErrCrashed
	}
	stall := f.cfg.StallAtSend > 0 && f.sends == f.cfg.StallAtSend && f.cfg.StallFor > 0
	ordinal := f.linkSends[dst]
	f.linkSends[dst] = ordinal + 1
	lf := f.linkFaults(dst)
	src := f.inner.Rank()

	// Decide every fault up front from independent lanes.
	drop := lf.DropProb > 0 && faultRoll(f.cfg.Seed, src, dst, ordinal, 0) < lf.DropProb
	dup := lf.DupProb > 0 && faultRoll(f.cfg.Seed, src, dst, ordinal, 1) < lf.DupProb
	reorder := lf.ReorderProb > 0 && faultRoll(f.cfg.Seed, src, dst, ordinal, 2) < lf.ReorderProb
	delay := time.Duration(0)
	if lf.DelayProb > 0 && lf.Delay > 0 && faultRoll(f.cfg.Seed, src, dst, ordinal, 3) < lf.DelayProb {
		delay = time.Duration(faultRoll(f.cfg.Seed, src, dst, ordinal, 4) * float64(lf.Delay))
	}

	// A held message from a previous reorder decision is released after the
	// current message, completing the swap.
	heldPayload, hasHeld := f.held[dst]
	heldT := f.heldTag[dst]
	if hasHeld {
		delete(f.held, dst)
		delete(f.heldTag, dst)
	}
	if drop {
		f.drops++
	}
	if dup {
		f.dups++
	}
	if reorder && !drop {
		f.reorders++
		hold := GetBuf(len(data))
		copy(hold, data)
		f.held[dst] = hold
		f.heldTag[dst] = tag
	}
	f.mu.Unlock()

	if stall {
		f.mu.Lock()
		f.delays++
		f.mu.Unlock()
		time.Sleep(f.cfg.StallFor)
	}
	if delay > 0 {
		f.mu.Lock()
		f.delays++
		f.mu.Unlock()
		time.Sleep(delay)
	}
	var err error
	if !drop && !reorder {
		err = f.inner.Send(dst, tag, data)
		if err == nil && dup {
			err = f.inner.Send(dst, tag, data)
		}
	}
	if hasHeld {
		if err2 := f.inner.Send(dst, heldT, heldPayload); err == nil {
			err = err2
		}
		Release(heldPayload)
	}
	return err
}

// Flush releases every held (reordered) message immediately, in destination
// order. Call it at a protocol quiesce point if traffic to a destination
// may stop while a message is held.
func (f *FaultTransport) Flush() error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	type pending struct {
		dst     int
		tag     Tag
		payload []float32
	}
	var out []pending
	for dst, payload := range f.held {
		out = append(out, pending{dst, f.heldTag[dst], payload})
		delete(f.held, dst)
		delete(f.heldTag, dst)
	}
	f.mu.Unlock()
	var first error
	for _, p := range out {
		if err := f.inner.Send(p.dst, p.tag, p.payload); first == nil {
			first = err
		}
		Release(p.payload)
	}
	return first
}

// Recv implements Transport.
func (f *FaultTransport) Recv(src int, tag Tag) ([]float32, error) {
	return f.RecvTimeout(src, tag, 0)
}

// RecvTimeout implements Transport.
func (f *FaultTransport) RecvTimeout(src int, tag Tag, timeout time.Duration) ([]float32, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.inner.RecvTimeout(src, tag, timeout)
}

// Close implements Transport.
func (f *FaultTransport) Close() error {
	f.mu.Lock()
	for dst, payload := range f.held {
		Release(payload)
		delete(f.held, dst)
		delete(f.heldTag, dst)
	}
	f.mu.Unlock()
	return f.inner.Close()
}

// BeginRecovery implements Recoverer by forwarding to the wrapped
// transport (a crashed endpoint stays crashed — injected deaths are
// permanent).
func (f *FaultTransport) BeginRecovery() []int {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil
	}
	return BeginRecovery(f.inner)
}

// Crashed reports whether the scheduled crash has fired.
func (f *FaultTransport) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Injected returns the fault counts applied so far (drops, dups, delays,
// reorders) and the total send count.
func (f *FaultTransport) Injected() (drops, dups, delays, reorders, sends int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drops, f.dups, f.delays, f.reorders, f.sends
}

var _ Transport = (*FaultTransport)(nil)
