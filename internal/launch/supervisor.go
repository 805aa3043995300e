package launch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/tensor"
)

// ErrMixedBackends rejects a fleet whose workers do not all run the
// supervisor's tensor backend: tolerance-mode backends are deterministic but
// not bit-identical to each other, so a mixed fleet would silently break the
// bit-identical replay oracle.
var ErrMixedBackends = errors.New("launch: workers disagree on the tensor backend")

// Options configures RunSupervisor.
type Options struct {
	// Ranks is the initial world size; Spares is how many extra standby
	// worker processes to spawn (admitted after failures to keep the world
	// size, then re-filled by fenced-out zombies that retire to standby).
	Ranks, Spares int
	// Spec is the training configuration handed to every worker.
	Spec TrainSpec
	// Schedule is the fault schedule to execute (see GenSchedule).
	Schedule []FaultEvent
	// WorkerArgv is the command re-exec'ed for each worker process
	// (default: this binary — os.Executable). The worker entry is selected
	// via environment, not argv, so any argv works as long as the target
	// binary checks IsWorker before its normal main.
	WorkerArgv []string
	// Log, when set, receives one JSON line per supervisor event — the
	// per-schedule trace artifact the soak harness uploads on failure.
	Log io.Writer
	// OnProgress, when set, observes every progress message (test hook).
	OnProgress func(workerID int, m Msg)
	// EpochTimeout bounds how long the supervisor waits for one incarnation
	// to resolve (default 120s).
	EpochTimeout time.Duration
}

// FaultEvent is one scheduled fault, fired when its target rank reports
// reaching AtIter.
type FaultEvent struct {
	// AtIter is the global iteration count that triggers the event.
	AtIter int
	// Action is "kill" (SIGKILL), "stall" (SIGSTOP for Dur, then SIGCONT),
	// or "partition" (blackhole the target's links toward Peers for Dur).
	Action string
	// Target is the victim rank in the incarnation current at fire time.
	Target int
	Dur    time.Duration
	Peers  []int
}

// EpochEvent records one incarnation for the replay oracle: the world
// size and start iteration fully determine the training trajectory of the
// segment, so the oracle can reproduce the whole run in-process.
type EpochEvent struct {
	Epoch     uint32 `json:"epoch"`
	World     int    `json:"world"`
	StartIter int    `json:"startIter"`
	// Policy is how this incarnation came to be: "initial", "spare",
	// "shrink", or "checkpoint".
	Policy string `json:"policy"`
	// Dead lists the previous incarnation's ranks whose loss caused this
	// one (empty for "initial").
	Dead []int `json:"dead,omitempty"`
}

// Report is the supervisor's account of a completed run.
type Report struct {
	History []EpochEvent
	// Losses is the final incarnation's loss vector (entries before its
	// start iteration are zero); WeightsHash fingerprints the final
	// weights, agreed bit-identically by every rank of that incarnation.
	Losses      []float64
	WeightsHash string
}

// proc is the supervisor's book-keeping for one worker process.
type proc struct {
	id    int
	cmd   *exec.Cmd
	c     *codec
	alive bool
	rank  int    // rank in the current incarnation; -1 = standby
	epoch uint32 // epoch of the last assignment sent
	// busy means an assignment is outstanding: the worker has not yet sent
	// its result for p.epoch. A fenced-out zombie stays busy until its
	// (stale) abort result arrives, which keeps it out of the standby pool
	// — admitting a worker that is still tearing down its old incarnation
	// would race its dial against the new mesh.
	busy bool
	// terminal state within the current incarnation
	res  *Msg
	died bool
}

type supEvent struct {
	id   int
	msg  Msg
	c    *codec // set on hello
	err  error  // control-channel read error (worker gone)
	died bool   // process exited
}

// RunSupervisor spawns Ranks+Spares worker processes, drives them through
// training incarnations under the fault schedule, and returns the final
// report. The run succeeds when every rank of some incarnation completes
// all iterations; it fails when no repair policy can continue.
//
// Every worker is told to run the tensor backend active in this process
// (tensor.SetBackend before the call pins it), which is also the backend
// ReplayOracle replays on; a worker that reports another one fails the run
// with ErrMixedBackends before any rank is assigned.
func RunSupervisor(o Options) (*Report, error) {
	if o.Ranks < 2 {
		return nil, fmt.Errorf("launch: need at least 2 ranks, got %d", o.Ranks)
	}
	if o.EpochTimeout <= 0 {
		o.EpochTimeout = 120 * time.Second
	}
	argv := o.WorkerArgv
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		argv = []string{exe}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &supervisor{
		o:       o,
		backend: tensor.BackendName(),
		events:  make(chan supEvent, 1024),
		procs:   make(map[int]*proc),
	}
	defer s.teardown(ln)

	// Accept loop: each worker dials in, identifies itself with a hello,
	// then its connection feeds the event channel.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.handleConn(conn)
		}
	}()

	total := o.Ranks + o.Spares
	for i := 0; i < total; i++ {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(),
			envWorker+"=1",
			envSupAddr+"="+ln.Addr().String(),
			envWorkID+"="+strconv.Itoa(i),
			envBackend+"="+s.backend,
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("launch: spawn worker %d: %w", i, err)
		}
		p := &proc{id: i, cmd: cmd, alive: true, rank: -1}
		s.procs[i] = p
		go func(id int) {
			cmd.Wait()
			s.events <- supEvent{id: id, died: true}
		}(i)
	}
	s.log(Msg{Type: "spawned", ID: total})

	if err := s.waitHellos(total); err != nil {
		return nil, err
	}
	return s.run()
}

type supervisor struct {
	o Options
	// backend is this process's tensor backend, which the fleet must share.
	backend string
	events  chan supEvent
	procs   map[int]*proc
	hist    []EpochEvent
	fired   []bool
}

func (s *supervisor) log(m Msg) {
	if s.o.Log != nil {
		raw, _ := json.Marshal(m)
		s.o.Log.Write(append(raw, '\n'))
	}
}

func (s *supervisor) handleConn(conn net.Conn) {
	c := newCodec(conn)
	m, err := c.recv()
	if err != nil || m.Type != "hello" {
		c.close()
		return
	}
	id := m.ID
	s.events <- supEvent{id: id, msg: m, c: c}
	for {
		m, err := c.recv()
		if err != nil {
			s.events <- supEvent{id: id, err: err}
			return
		}
		s.events <- supEvent{id: id, msg: m}
	}
}

func (s *supervisor) waitHellos(total int) error {
	deadline := time.After(30 * time.Second)
	helloed := 0
	for helloed < total {
		select {
		case ev := <-s.events:
			if ev.c != nil {
				if p := s.procs[ev.id]; p != nil && p.c == nil {
					p.c = ev.c
					helloed++
					if ev.msg.Backend != s.backend {
						return fmt.Errorf("%w: worker %d runs %q, supervisor %q",
							ErrMixedBackends, ev.id, ev.msg.Backend, s.backend)
					}
				}
			} else if ev.died {
				return fmt.Errorf("launch: worker %d died before hello", ev.id)
			}
		case <-deadline:
			return fmt.Errorf("launch: %d/%d workers checked in before timeout", helloed, total)
		}
	}
	s.log(Msg{Type: "hellos", ID: total})
	return nil
}

// teardown dismisses every worker: a polite exit first, SIGKILL for
// whoever lingers, then wait until all process-exit events arrive so no
// goroutine or child outlives the call.
func (s *supervisor) teardown(ln net.Listener) {
	ln.Close()
	for _, p := range s.procs {
		if p.alive && p.c != nil {
			p.c.send(Msg{Type: "exit"})
		}
	}
	grace := time.After(3 * time.Second)
	for {
		remaining := 0
		for _, p := range s.procs {
			if p.alive {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		select {
		case ev := <-s.events:
			if ev.died {
				if p := s.procs[ev.id]; p != nil {
					p.alive = false
				}
			}
		case <-grace:
			for _, p := range s.procs {
				if p.alive {
					p.cmd.Process.Kill()
					// SIGCONT after SIGKILL is harmless and frees a worker
					// that was SIGSTOPped by a stall event.
					p.cmd.Process.Signal(syscall.SIGCONT)
				}
			}
			grace = time.After(3 * time.Second)
		}
	}
	for _, p := range s.procs {
		if p.c != nil {
			p.c.close()
		}
	}
}

// run drives incarnations until one completes or no policy can continue.
func (s *supervisor) run() (*Report, error) {
	s.fired = make([]bool, len(s.o.Schedule))
	epoch := uint32(1)
	world := s.o.Ranks
	startIter := 0
	policy := "initial"
	var dead []int // previous incarnation's dead ranks
	var seedTo []int

	// Initial assignment: workers 0..Ranks-1 in order; the rest standby.
	ids := make([]int, 0, len(s.procs))
	for id := range s.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	active := ids[:world]

	for {
		addrs, err := comm.LoopbackAddrs(world)
		if err != nil {
			return nil, err
		}
		s.hist = append(s.hist, EpochEvent{
			Epoch: epoch, World: world, StartIter: startIter, Policy: policy, Dead: dead,
		})
		s.log(Msg{Type: "epoch", Epoch: epoch, World: world, Iter: startIter, State: policy, Dead: dead})

		for rank, id := range active {
			p := s.procs[id]
			p.rank, p.res, p.died = rank, nil, false
			p.epoch, p.busy = epoch, true
			assign := Msg{
				Type: "assign", Epoch: epoch, Rank: rank, World: world,
				Addrs: addrs, StartIter: startIter, FromCkpt: policy == "checkpoint",
				Spec: &s.o.Spec,
			}
			if len(seedTo) > 0 {
				zero := 0
				assign.SeedFrom = &zero
				assign.SeedTo = seedTo
			}
			if err := p.c.send(assign); err != nil {
				return nil, fmt.Errorf("launch: assign rank %d to worker %d: %w", rank, id, err)
			}
		}

		if err := s.collect(active, epoch); err != nil {
			return nil, err
		}

		if rep, done := s.completed(active); done {
			return rep, nil
		}

		next, err := s.plan(active, world)
		if err != nil {
			return nil, err
		}
		epoch++
		world = next.world
		startIter = next.startIter
		policy = next.policy
		dead = next.dead
		seedTo = next.seedTo
		active = next.active
	}
}

// collect waits until every active rank reached a terminal state for this
// epoch (result message or process death), firing fault-schedule events
// as progress reports come in.
func (s *supervisor) collect(active []int, epoch uint32) error {
	deadline := time.After(s.o.EpochTimeout)
	for {
		resolved := 0
		for _, id := range active {
			p := s.procs[id]
			if p.res != nil || p.died {
				resolved++
			}
		}
		if resolved == len(active) {
			return nil
		}
		select {
		case ev := <-s.events:
			s.handleEvent(ev, active, epoch)
		case <-deadline:
			return fmt.Errorf("launch: epoch %d unresolved after %v", epoch, s.o.EpochTimeout)
		}
	}
}

func (s *supervisor) handleEvent(ev supEvent, active []int, epoch uint32) {
	p := s.procs[ev.id]
	if p == nil {
		return
	}
	switch {
	case ev.died:
		p.alive = false
		p.died = true
		p.busy = false
		s.log(Msg{Type: "died", ID: ev.id})
	case ev.err != nil:
		// Control channel gone; the process-exit event follows.
	case ev.msg.Type == "progress":
		s.log(Msg{Type: "progress", ID: ev.id, Epoch: ev.msg.Epoch, Iter: ev.msg.Iter, State: ev.msg.State})
		if s.o.OnProgress != nil {
			s.o.OnProgress(ev.id, ev.msg)
		}
		// Stale-epoch progress (a zombie that woke up mid-repair) never
		// triggers faults: the rank numbering it reports is from a fenced
		// incarnation.
		if ev.msg.Epoch == epoch && ev.msg.State == "" {
			s.fire(p, ev.msg.Iter)
		}
	case ev.msg.Type == "result":
		s.log(Msg{Type: "result", ID: ev.id, Epoch: ev.msg.Epoch, Done: ev.msg.Done,
			Aborted: ev.msg.Aborted, Reason: ev.msg.Reason, Cut: ev.msg.Cut,
			Dead: ev.msg.Dead, SnapHash: ev.msg.SnapHash, WHash: ev.msg.WHash})
		if ev.msg.Epoch == p.epoch {
			p.busy = false
			if p.rank >= 0 {
				m := ev.msg
				p.res = &m
			}
		}
		// A result for an epoch older than the last assignment would mean
		// the control channel reordered — impossible on one TCP stream.
	}
}

// fire executes schedule events targeting rank p.rank at iteration iter.
func (s *supervisor) fire(p *proc, iter int) {
	for i, ev := range s.o.Schedule {
		if s.fired[i] || ev.Target != p.rank || iter < ev.AtIter {
			continue
		}
		s.fired[i] = true
		s.log(Msg{Type: "fault", State: ev.Action, Rank: ev.Target, Iter: iter, ID: p.id})
		switch ev.Action {
		case "kill":
			p.cmd.Process.Kill()
		case "stall":
			p.cmd.Process.Signal(syscall.SIGSTOP)
			pr := p.cmd.Process
			time.AfterFunc(ev.Dur, func() { pr.Signal(syscall.SIGCONT) })
		case "partition":
			p.c.send(Msg{Type: "partition", Peers: ev.Peers, Dur: ev.Dur})
		}
	}
}

// completed returns the success report if every active rank finished all
// iterations, cross-checking that they agreed on the final weights.
func (s *supervisor) completed(active []int) (*Report, bool) {
	var rep *Report
	for _, id := range active {
		p := s.procs[id]
		if p.res == nil || !p.res.Done {
			return nil, false
		}
		if rep == nil {
			rep = &Report{History: s.hist, WeightsHash: p.res.WHash}
		}
		if p.res.WHash != rep.WeightsHash {
			// Divergent final weights are a protocol bug, not a policy
			// decision; surface loudly via an impossible hash.
			rep.WeightsHash = "DIVERGED:" + p.res.WHash
		}
		if p.rank == 0 {
			rep.Losses = p.res.Losses
		}
	}
	return rep, rep != nil
}

// nextEpoch is plan's decision for the following incarnation.
type nextEpoch struct {
	world, startIter int
	policy           string
	dead             []int
	seedTo           []int
	active           []int
}

// plan decides how the run continues after a failed incarnation: spare
// admission while standbys last, else shrink, else checkpoint restart.
func (s *supervisor) plan(active []int, world int) (*nextEpoch, error) {
	// Survivors: ranks that harvested a repair snapshot. Cross-check that
	// they agreed on the dead set, the cut, and the snapshot bits.
	type sv struct {
		id, rank int
	}
	var survivors []sv
	var cut int
	var deadSet []int
	var snapHash string
	for _, id := range active {
		p := s.procs[id]
		if p.res == nil || p.res.SnapHash == "" {
			continue
		}
		if len(survivors) == 0 {
			cut, deadSet, snapHash = p.res.Cut, p.res.Dead, p.res.SnapHash
		} else if p.res.Cut != cut || p.res.SnapHash != snapHash || !equalInts(p.res.Dead, deadSet) {
			return nil, fmt.Errorf("launch: survivors diverged: worker %d cut=%d hash=%s dead=%v vs cut=%d hash=%s dead=%v",
				id, p.res.Cut, p.res.SnapHash, p.res.Dead, cut, snapHash, deadSet)
		}
		survivors = append(survivors, sv{id: id, rank: p.rank})
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].rank < survivors[j].rank })

	// Everyone not surviving returns to the pool (if alive) or is buried.
	// A rank the survivors agreed dead but whose process still runs (a
	// partitioned zombie) gets no new assignment; when its fenced epoch
	// aborts it will retire to standby via the late-result path.
	for _, id := range active {
		p := s.procs[id]
		issurv := false
		for _, v := range survivors {
			if v.id == id {
				issurv = true
			}
		}
		if !issurv {
			p.rank = -1
		}
	}

	standbys := s.standbys()
	if len(survivors) >= 2 {
		admit := len(deadSet)
		if admit > len(standbys) {
			admit = len(standbys)
		}
		// Prefer keeping the world size; peel admissions off until the
		// shrunken-world constraints hold.
		for ; admit >= 0; admit-- {
			nw := len(survivors) + admit
			if nw < 2 || nw > s.o.Spec.Layers+2 || s.o.Spec.MicroBatches%nw != 0 {
				continue
			}
			next := &nextEpoch{world: nw, startIter: cut, dead: deadSet}
			for _, v := range survivors {
				next.active = append(next.active, v.id)
			}
			if admit > 0 {
				next.policy = "spare"
				for i := 0; i < admit; i++ {
					next.seedTo = append(next.seedTo, len(survivors)+i)
					next.active = append(next.active, standbys[i])
				}
			} else {
				next.policy = "shrink"
			}
			return next, nil
		}
	}

	// Checkpoint restart: every usable worker re-reads the last coordinated
	// checkpoint from disk.
	if s.o.Spec.CheckpointPath == "" {
		return nil, fmt.Errorf("launch: no repair possible (survivors=%d, standbys=%d) and no checkpoint configured",
			len(survivors), len(standbys))
	}
	snap, err := checkpoint.Load(s.o.Spec.CheckpointPath)
	if err != nil {
		return nil, fmt.Errorf("launch: checkpoint restart: %w", err)
	}
	pool := append([]int(nil), standbys...)
	for _, v := range survivors {
		pool = append(pool, v.id)
	}
	sort.Ints(pool)
	for nw := min(s.o.Ranks, len(pool)); nw >= 2; nw-- {
		if nw > s.o.Spec.Layers+2 || s.o.Spec.MicroBatches%nw != 0 {
			continue
		}
		return &nextEpoch{
			world: nw, startIter: int(snap.Step), policy: "checkpoint",
			dead: deadSet, active: pool[:nw],
		}, nil
	}
	return nil, fmt.Errorf("launch: %d usable workers cannot form a valid world", len(pool))
}

// standbys lists alive, unassigned, idle workers in id order. A fenced-out
// zombie that has not yet reported its stale abort is still busy and not
// eligible; once its result drains it becomes re-admissible as a spare.
func (s *supervisor) standbys() []int {
	var out []int
	for id, p := range s.procs {
		if p.alive && p.rank == -1 && !p.busy {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
