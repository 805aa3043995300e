package comm

import (
	"sync"
	"time"
)

// FaultTransport wraps any Transport with a deterministic endpoint failure:
// a crash of this endpoint at a chosen send, or a one-off stall before one.
// Every send counts, whichever of Send, SendOwned and Forward carries it, so
// a schedule lands on the same message whichever way the runtime hands a
// payload over. Everything else passes through to the wrapped transport,
// which keeps its own data path (zero-copy donation and checksum-reusing
// relays included).
//
// FaultTransport fails the endpoint, above any reliability machinery: a
// crashed rank is gone. It is the tool for testing abort, recovery and
// watchdog paths. To exercise faults that the hardened TCP transport must
// mask transparently (frame drop, duplication, reordering, connection
// reset), use ChaosConfig in DialTCPOpts, which injects below the
// sequence-number/redelivery layer.
type FaultTransport struct {
	Transport
	cfg FaultConfig

	mu      sync.Mutex
	sends   int64 // total sends, drives the crash and stall schedule
	crashed bool
}

// FaultConfig configures a FaultTransport.
type FaultConfig struct {
	// CrashAtSend, when positive, kills this endpoint at its CrashAtSend-th
	// send (1-based): the underlying transport is closed (as a dead process
	// would) and every subsequent operation fails with ErrCrashed.
	CrashAtSend int64
	// StallAtSend, when positive, sleeps this endpoint for StallFor at its
	// StallAtSend-th send (1-based) before delivering — a deterministic
	// single straggler event (GC pause, page fault storm, slow NIC) for
	// watchdog tests.
	StallAtSend int64
	StallFor    time.Duration
}

// NewFaultTransport wraps inner with fault injection.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	return &FaultTransport{Transport: inner, cfg: cfg}
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

// admit counts one send against the schedule. It fails with ErrCrashed once
// the endpoint has crashed, closing the wrapped transport at the crash
// itself: peers observe broken connections (or closed mailboxes), not a
// graceful goodbye. At the stall ordinal it sleeps before admitting.
func (f *FaultTransport) admit() error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.sends++
	if f.cfg.CrashAtSend > 0 && f.sends >= f.cfg.CrashAtSend {
		f.crashed = true
		f.mu.Unlock()
		f.Transport.Close()
		return ErrCrashed
	}
	stall := f.cfg.StallAtSend > 0 && f.sends == f.cfg.StallAtSend
	f.mu.Unlock()
	if stall {
		time.Sleep(f.cfg.StallFor)
	}
	return nil
}

// Send implements Transport, applying the schedule.
func (f *FaultTransport) Send(dst int, tag Tag, data []float32) error {
	if err := f.admit(); err != nil {
		return err
	}
	return f.Transport.Send(dst, tag, data)
}

// SendOwned implements Transport, applying the schedule. Ownership
// transfers on the crash path too.
func (f *FaultTransport) SendOwned(dst int, tag Tag, payload []float32) error {
	if err := f.admit(); err != nil {
		Release(payload)
		return err
	}
	return f.Transport.SendOwned(dst, tag, payload)
}

// Forward implements Transport, applying the schedule like SendOwned.
func (f *FaultTransport) Forward(dst int, tag Tag, payload []float32) error {
	if err := f.admit(); err != nil {
		Release(payload)
		return err
	}
	return f.Transport.Forward(dst, tag, payload)
}

// Recv implements Transport.
func (f *FaultTransport) Recv(src int, tag Tag) ([]float32, error) {
	return f.RecvTimeout(src, tag, 0)
}

// RecvTimeout implements Transport.
func (f *FaultTransport) RecvTimeout(src int, tag Tag, timeout time.Duration) ([]float32, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.Transport.RecvTimeout(src, tag, timeout)
}

// BeginRecovery implements Transport by forwarding to the wrapped
// transport (a crashed endpoint stays crashed — injected deaths are
// permanent).
func (f *FaultTransport) BeginRecovery() []int {
	if f.Crashed() {
		return nil
	}
	return f.Transport.BeginRecovery()
}

// Crashed reports whether the scheduled crash has fired.
func (f *FaultTransport) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Sends returns the number of sends counted so far, the crashing one
// included.
func (f *FaultTransport) Sends() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sends
}

var _ Transport = (*FaultTransport)(nil)
