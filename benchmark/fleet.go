package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/pipeline"
	"weipipe/internal/trace"
)

// dial brings up an n-rank fabric: an in-process cluster, or a TCP mesh on
// fresh loopback ports. set (nil = tracing off) receives the transports'
// send/recv spans.
func dial(n int, tcp bool, set *trace.Set) ([]comm.Transport, error) {
	if !tcp {
		cl := comm.NewCluster(n)
		cl.AttachTrace(set)
		return cl.Transports(), nil
	}
	addrs, err := comm.LoopbackAddrs(n)
	if err != nil {
		return nil, fmt.Errorf("loopback addrs: %w", err)
	}
	transports := make([]comm.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t, err := comm.DialTCPOpts(r, addrs, comm.TCPOptions{Trace: set.Rank(r)})
			if err != nil {
				errs[r] = err
				return
			}
			transports[r] = t
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			closeAll(transports)
			return nil, fmt.Errorf("dial rank %d: %w", r, err)
		}
	}
	return transports, nil
}

func closeAll(transports []comm.Transport) {
	for _, t := range transports {
		if t != nil {
			t.Close()
		}
	}
}

// fleet is one set of trainers on one fabric, driven step by step from the
// benchmark (closed loop: a step starts when every rank has returned from
// the previous one).
type fleet struct {
	transports []comm.Transport
	trainers   []pipeline.Trainer
	set        *trace.Set
	closeOnce  sync.Once

	steps  int       // steps driven so far; the trace's iteration index
	losses []float64 // one per successful step, from step 0
}

// newFleet brings up the n-rank fabric; build must follow.
func newFleet(n int, tcp bool, set *trace.Set) (*fleet, error) {
	transports, err := dial(n, tcp, set)
	if err != nil {
		return nil, err
	}
	return &fleet{transports: transports, set: set}, nil
}

// build constructs one trainer per rank. Ranks build concurrently, as the
// ranks of a real run would.
func (c *fleet) build(s pipeline.Strategy, cfg model.Config, opts pipeline.Options) error {
	n := len(c.transports)
	c.trainers = make([]pipeline.Trainer, n)
	opts.Trace = c.set
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c.trainers[r], errs[r] = pipeline.New(s, c.transports[r], cfg, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("build rank %d: %w", r, err)
		}
	}
	return nil
}

func (c *fleet) close() { c.closeOnce.Do(func() { closeAll(c.transports) }) }

// step runs one training iteration on every rank and times it barrier to
// barrier. It fails when a rank errors, or when the ranks do not all return
// the same finite loss. A rank error closes the fabric so that peers blocked
// on a receive return instead of hanging; the fleet is unusable afterwards.
func (c *fleet) step(batches []data.Batch) (time.Duration, error) {
	n := len(c.trainers)
	losses := make([]float64, n)
	errs := make([]error, n)
	iter := int64(c.steps)
	c.steps++
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := c.set.Rank(r)
			span := tr.Begin()
			losses[r], errs[r] = c.trainers[r].TrainIteration(batches)
			tr.End(span, trace.CodeStep, iter, 0)
			if errs[r] != nil {
				c.close()
			}
		}(r)
	}
	wg.Wait()
	dur := time.Since(t0)
	for r, err := range errs {
		if err != nil {
			return dur, fmt.Errorf("step %d rank %d: %w", iter, r, err)
		}
	}
	for r, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return dur, fmt.Errorf("step %d rank %d: non-finite loss %v", iter, r, l)
		}
		if l != losses[0] {
			return dur, fmt.Errorf("step %d: rank %d loss %v differs from rank 0 loss %v", iter, r, l, losses[0])
		}
	}
	c.losses = append(c.losses, losses[0])
	return dur, nil
}

// skippedSteps is the number of optimizer steps the trainers dropped.
func (c *fleet) skippedSteps() int {
	out := 0
	for _, tr := range c.trainers {
		if sc, ok := tr.(pipeline.SkipCounter); ok && sc.SkippedSteps() > out {
			out = sc.SkippedSteps()
		}
	}
	return out
}

// commTotals is a point-in-time sum of every rank's comm.Stats.
type commTotals struct {
	bytes, msgs          int64
	recvWait, beltStall  time.Duration
	retransmits, timeout int64
	maxInflight          int64 // largest over the ranks; not a sum
}

func (c *fleet) commTotals() commTotals {
	total := comm.NewStats()
	for _, tr := range c.transports {
		total.Add(tr.(comm.Meter).CommStats())
	}
	faults := total.TotalFaults()
	t := commTotals{
		bytes: total.TotalSentBytes(), recvWait: total.RecvWait(), beltStall: total.BeltStall(),
		retransmits: faults.Retransmits, timeout: faults.Timeouts, maxInflight: total.MaxInFlightBytes(),
	}
	for k := comm.KindWeight; k <= comm.KindBuddy; k++ {
		t.msgs += total.SentMsgs(k)
	}
	return t
}

// since returns the traffic between an earlier reading and t; maxInflight
// is a high-water mark and stays t's.
func (t commTotals) since(before commTotals) commTotals {
	return commTotals{
		bytes: t.bytes - before.bytes, msgs: t.msgs - before.msgs,
		recvWait: t.recvWait - before.recvWait, beltStall: t.beltStall - before.beltStall,
		retransmits: t.retransmits - before.retransmits, timeout: t.timeout - before.timeout,
		maxInflight: t.maxInflight,
	}
}

// arenaHighWater is the largest per-rank scratch-arena slot count; 0 when
// the strategy's trainers carry no meter (FSDP).
func (c *fleet) arenaHighWater() int {
	hw := 0
	for _, tr := range c.trainers {
		if m, ok := tr.(pipeline.ArenaMeter); ok && m.ArenaHighWater() > hw {
			hw = m.ArenaHighWater()
		}
	}
	return hw
}
