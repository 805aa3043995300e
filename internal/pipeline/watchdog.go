package pipeline

import (
	"sort"
	"sync"
	"time"

	"weipipe/internal/comm"
)

// The straggler watchdog handles the failure mode heartbeats cannot: a
// rank that is alive — its link answers — but has stopped making progress.
// Every rank posts progress beacons (a timestamp on each transport
// operation, plus iteration/microbatch/phase from the WeiPipe stages); the
// watchdog samples them and flags any rank whose beacon has been stale for
// longer than a threshold derived from the trailing per-iteration median.
//
// The discriminator that prevents false positives in a ring is the waiting
// bit: a rank parked in Recv is the *victim* of a stall somewhere
// upstream, not its cause, so only ranks that are stale while NOT waiting
// (computing, or sleeping inside a Send — where an artificially delayed
// link puts them) are flagged. Ranks that finished the iteration and are
// parked at the driver barrier are marked idle and exempt. The threshold
// arms only once a full iteration has completed, so bring-up cannot trip
// it.

// WatchdogConfig tunes the straggler watchdog.
type WatchdogConfig struct {
	// Interval is the sampling period (default 10ms).
	Interval time.Duration
	// Multiple scales the trailing per-iteration median into the stall
	// threshold (default 8).
	Multiple float64
	// MinStall is the absolute floor of the stall threshold, guarding
	// against tiny medians on fast workloads (default 250ms).
	MinStall time.Duration
	// History bounds the trailing window of iteration durations the median
	// is computed over (default 8).
	History int
	// DeclareDead closes a flagged rank's transport, converting the hang
	// into a rank failure that flows through the same elastic repair (or
	// checkpoint restart) path as a crash.
	DeclareDead bool
	// OnStraggler is invoked (from the watchdog goroutine) once per rank
	// per attempt when it is flagged.
	OnStraggler func(StragglerReport)
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.Multiple <= 0 {
		c.Multiple = 8
	}
	if c.MinStall <= 0 {
		c.MinStall = 250 * time.Millisecond
	}
	if c.History <= 0 {
		c.History = 8
	}
	return c
}

// StragglerReport describes one flagged rank.
type StragglerReport struct {
	Rank  int
	Stall time.Duration // time since the rank's last progress beacon
	// Iteration, Microbatch and Phase are the rank's last reported
	// schedule position ('F', 'B' or 'W'; 0 when the trainer posts none).
	Iteration  int
	Microbatch int
	Phase      byte
	// Declared reports whether the watchdog killed the rank's transport.
	Declared bool
}

// ProgressBoard collects per-rank progress beacons. Beacon writes come
// from rank goroutines on every transport operation; the watchdog samples
// the board on its own goroutine.
type ProgressBoard struct {
	mu    sync.Mutex
	ranks []rankProgress
}

type rankProgress struct {
	lastBeat time.Time
	waiting  bool // parked in Recv: a stall victim, never a cause
	idle     bool // finished the iteration / between iterations
	iter, mb int
	phase    byte
}

// NewProgressBoard builds a board for n ranks, all idle.
func NewProgressBoard(n int) *ProgressBoard {
	b := &ProgressBoard{ranks: make([]rankProgress, n)}
	now := time.Now()
	for r := range b.ranks {
		b.ranks[r].lastBeat = now
		b.ranks[r].idle = true
	}
	return b
}

func (b *ProgressBoard) beat(rank int) {
	b.mu.Lock()
	b.ranks[rank].lastBeat = time.Now()
	b.mu.Unlock()
}

func (b *ProgressBoard) setWaiting(rank int, waiting bool) {
	b.mu.Lock()
	b.ranks[rank].waiting = waiting
	b.ranks[rank].lastBeat = time.Now()
	b.mu.Unlock()
}

// Beat stamps a liveness beacon for rank without changing its state — the
// hook long non-transport work (checkpoint capture, membership agreement,
// snapshot serialisation) uses so a rank that is legitimately busy off
// the wire is not mistaken for a straggler.
func (b *ProgressBoard) Beat(rank int) { b.beat(rank) }

// BeaconBarrier runs fn with rank marked as barrier-parked: the waiting
// bit exempts it from straggler detection (a rank parked at a coordinated
// barrier is a victim of whoever is slowest, never a cause), and periodic
// beats keep its beacon fresh for monitors that key on staleness alone —
// the cross-process supervisor's stall monitor among them. It returns
// fn's error. A nil board degrades to a plain call.
func BeaconBarrier(b *ProgressBoard, rank int, interval time.Duration, fn func() error) error {
	if b == nil {
		return fn()
	}
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	b.setWaiting(rank, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				b.beat(rank)
			}
		}
	}()
	err := fn()
	close(stop)
	wg.Wait()
	b.setWaiting(rank, false)
	return err
}

// SetIdle marks a rank as parked at the driver barrier (exempt from
// straggler detection) or active again.
func (b *ProgressBoard) SetIdle(rank int, idle bool) {
	b.mu.Lock()
	b.ranks[rank].idle = idle
	b.ranks[rank].lastBeat = time.Now()
	b.mu.Unlock()
}

// Post records a rank's schedule position (iteration, microbatch, phase).
func (b *ProgressBoard) Post(rank, iter, mb int, phase byte) {
	b.mu.Lock()
	p := &b.ranks[rank]
	p.iter, p.mb, p.phase = iter, mb, phase
	p.lastBeat = time.Now()
	b.mu.Unlock()
}

func (b *ProgressBoard) snapshot() []rankProgress {
	b.mu.Lock()
	out := make([]rankProgress, len(b.ranks))
	copy(out, b.ranks)
	b.mu.Unlock()
	return out
}

// progressSink is implemented by trainers that can post schedule-position
// beacons to a board.
type progressSink interface {
	SetProgressBoard(b *ProgressBoard, rank int)
}

// SetProgressBoard implements progressSink for WeiPipe.
func (w *WeiPipe) SetProgressBoard(b *ProgressBoard, rank int) {
	w.board = b
	w.boardRank = rank
}

// beaconTransport stamps the board on every transport operation and tracks
// the waiting-in-Recv state. It wraps OUTSIDE any fault-injection wrapper,
// so an injected send delay registers as non-waiting time — exactly the
// signature of a stalled-but-alive rank.
type beaconTransport struct {
	comm.Transport
	board *ProgressBoard
	rank  int
}

// WrapBeacon wraps t so its operations post progress beacons for rank.
func WrapBeacon(t comm.Transport, board *ProgressBoard, rank int) comm.Transport {
	return &beaconTransport{Transport: t, board: board, rank: rank}
}

func (b *beaconTransport) Send(dst int, tag Tag, payload []float32) error {
	b.board.beat(b.rank)
	err := b.Transport.Send(dst, tag, payload)
	b.board.beat(b.rank)
	return err
}

func (b *beaconTransport) Recv(src int, tag Tag) ([]float32, error) {
	b.board.setWaiting(b.rank, true)
	payload, err := b.Transport.Recv(src, tag)
	b.board.setWaiting(b.rank, false)
	return payload, err
}

func (b *beaconTransport) RecvTimeout(src int, tag Tag, d time.Duration) ([]float32, error) {
	b.board.setWaiting(b.rank, true)
	payload, err := b.Transport.RecvTimeout(src, tag, d)
	b.board.setWaiting(b.rank, false)
	return payload, err
}

// CommStats forwards the inner meter (the wrapper adds no traffic).
func (b *beaconTransport) CommStats() *comm.Stats {
	if m, ok := b.Transport.(comm.Meter); ok {
		return m.CommStats()
	}
	return comm.NewStats()
}

// WireCodec forwards the inner codec report (the wrapper never re-encodes).
func (b *beaconTransport) WireCodec(tag Tag) comm.WireCodec { return comm.CodecOf(b.Transport, tag) }

// BeginRecovery forwards to the inner transport, so a watched rank climbs
// the repair ladder like any other.
func (b *beaconTransport) BeginRecovery() []int { return comm.BeginRecovery(b.Transport) }

// watchdog samples a ProgressBoard and flags stragglers.
type watchdog struct {
	cfg   WatchdogConfig
	board *ProgressBoard
	kill  func(rank int)

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu        sync.Mutex
	durations []time.Duration
	flagged   map[int]bool
}

// startWatchdog launches the sampling goroutine. kill is invoked (at most
// once per rank) when DeclareDead is set and a straggler is flagged; it
// must be safe to call from the watchdog goroutine.
func startWatchdog(cfg WatchdogConfig, board *ProgressBoard, kill func(int)) *watchdog {
	wd := &watchdog{
		cfg:     cfg.withDefaults(),
		board:   board,
		kill:    kill,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		flagged: make(map[int]bool),
	}
	go wd.run()
	return wd
}

// NoteIteration feeds a completed iteration's wall-clock duration into the
// trailing median; the first call arms the detector.
func (wd *watchdog) NoteIteration(d time.Duration) {
	wd.mu.Lock()
	wd.durations = append(wd.durations, d)
	if len(wd.durations) > wd.cfg.History {
		wd.durations = wd.durations[len(wd.durations)-wd.cfg.History:]
	}
	wd.mu.Unlock()
}

// threshold returns the current stall threshold, or 0 while unarmed.
func (wd *watchdog) threshold() time.Duration {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if len(wd.durations) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), wd.durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	th := time.Duration(float64(median) * wd.cfg.Multiple)
	if th < wd.cfg.MinStall {
		th = wd.cfg.MinStall
	}
	return th
}

// Stop terminates and joins the sampling goroutine (idempotent).
func (wd *watchdog) Stop() {
	wd.stopOnce.Do(func() { close(wd.stop) })
	<-wd.done
}

func (wd *watchdog) run() {
	defer close(wd.done)
	ticker := time.NewTicker(wd.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-wd.stop:
			return
		case <-ticker.C:
		}
		th := wd.threshold()
		if th == 0 {
			continue // unarmed until the first iteration completes
		}
		now := time.Now()
		for rank, p := range wd.board.snapshot() {
			if p.idle || p.waiting {
				continue
			}
			stall := now.Sub(p.lastBeat)
			if stall <= th {
				continue
			}
			wd.mu.Lock()
			already := wd.flagged[rank]
			wd.flagged[rank] = true
			wd.mu.Unlock()
			if already {
				continue
			}
			declare := wd.cfg.DeclareDead
			if declare {
				wd.kill(rank)
			}
			if wd.cfg.OnStraggler != nil {
				wd.cfg.OnStraggler(StragglerReport{
					Rank:       rank,
					Stall:      stall,
					Iteration:  p.iter,
					Microbatch: p.mb,
					Phase:      p.phase,
					Declared:   declare,
				})
			}
		}
	}
}
