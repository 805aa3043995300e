package pipeline

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"weipipe/internal/tensor"
)

// Seeded in-memory bit-flip chaos. The transport chaos injectors (frame
// ChaosConfig, message FaultTransport) exercise the *wire* failure model;
// this one exercises the silent-data-corruption model the integrity layer
// defends against: a bit flipped in resident state (master weights,
// optimizer moments), in a staged belt payload after the link CRC was
// already verified, or in a matmul's output between the ALU and the
// consumer. Every event is a pure function of the schedule seed, so a
// soak failure replays exactly, and events fire at most once even across
// restart attempts (the injector outlives the trainers it corrupts).

// FlipSite names where a scheduled bit flip lands.
type FlipSite int

// The injection sites of the chaos tier. Each maps to one of the
// integrity layer's detection points (DESIGN.md §15).
const (
	// FlipWeights corrupts the rank's resident fp32 master weights at the
	// start of the scheduled iteration (detected by the resident guard).
	FlipWeights FlipSite = iota
	// FlipMomentM / FlipMomentV corrupt the AdamW moment vectors
	// (detected by the resident guard).
	FlipMomentM
	FlipMomentV
	// FlipBeltWeight corrupts a staged weight-belt payload between
	// receive and verification (detected by the chunk checksum).
	FlipBeltWeight
	// FlipBeltGrad corrupts the retired gradient an owner receives
	// (detected by the chunk checksum before the owner folds it in).
	FlipBeltGrad
	// FlipKernel corrupts a matmul output between the kernel and its
	// ABFT verification (detected by the row-checksum envelope). Fired
	// through tensor.SetABFTFault on a global call ordinal rather than a
	// (rank, iteration) point, since the kernel layer is rank-agnostic.
	FlipKernel

	flipSiteCount
)

// String names the site for logs and soak reports.
func (s FlipSite) String() string {
	switch s {
	case FlipWeights:
		return "weights"
	case FlipMomentM:
		return "moment-m"
	case FlipMomentV:
		return "moment-v"
	case FlipBeltWeight:
		return "belt-weight"
	case FlipBeltGrad:
		return "belt-grad"
	case FlipKernel:
		return "kernel"
	}
	return fmt.Sprintf("site-%d", int(s))
}

// BitFlipEvent schedules one bit flip. For kernel events Rank/Iter are
// ignored and Word selects the global matmul ordinal to corrupt.
type BitFlipEvent struct {
	// Rank and Iter select the (rank, iteration) point at which the flip
	// fires; the first matching injection call in that iteration takes it.
	Rank, Iter int
	// Site selects the target buffer.
	Site FlipSite
	// Word indexes the target element (modulo the buffer length at fire
	// time). For FlipKernel it is the matmul-call ordinal instead.
	Word uint64
	// Bit is the bit to flip within the float32 word, 0–30. Bit 31 (the
	// sign of what may be a tiny value) is avoided by the generator so
	// weight flips stay detectable above rounding noise — the generator
	// biases toward exponent and high-mantissa bits, where real SDC does
	// its damage.
	Bit uint
}

// GenBitFlips derives a deterministic flip schedule from a seed: count
// events spread over iterations [2, iters) (leaving the first iterations
// clean so a checkpoint exists before the first fault) across ranks and
// the given sites. Rank, iteration, site, word and bit are drawn in turn
// from one tensor.RNG stream, as launch.GenSchedule draws its faults.
func GenBitFlips(seed uint64, ranks, iters, count int, sites []FlipSite) []BitFlipEvent {
	if len(sites) == 0 {
		sites = []FlipSite{FlipWeights, FlipMomentM, FlipMomentV, FlipBeltWeight, FlipBeltGrad}
	}
	lo := 2
	if iters <= lo {
		lo = 0
	}
	span := iters - lo
	if span < 1 {
		span = 1
	}
	out := make([]BitFlipEvent, 0, count)
	r := tensor.NewRNG(seed)
	for i := 0; i < count; i++ {
		ev := BitFlipEvent{
			Rank: r.Intn(ranks),
			Iter: lo + r.Intn(span),
			Site: sites[r.Intn(len(sites))],
			Word: r.Uint64(),
			// Exponent and high-mantissa bits (16–30): the corruption class
			// that actually damages training. Checksummed sites detect any
			// bit, but keeping the schedule in the damaging band makes an
			// undetected flip a training-visible failure, not a benign one.
			Bit: 16 + uint(r.Intn(15)),
		}
		if ev.Site == FlipKernel {
			// Kernel flips are caught by the ABFT magnitude envelope, not a
			// CRC: pin the high exponent bit, whose flip always throws the
			// row sum far outside the tolerance (low-mantissa flips of tiny
			// values sit below the documented detection floor).
			ev.Bit = 30
		}
		out = append(out, ev)
	}
	// Deterministic order for reports: by iteration, then rank.
	sort.Slice(out, func(a, b int) bool {
		if out[a].Iter != out[b].Iter {
			return out[a].Iter < out[b].Iter
		}
		return out[a].Rank < out[b].Rank
	})
	return out
}

// FiredFlip records one injected flip for soak assertions.
type FiredFlip struct {
	Event BitFlipEvent
	// Index is the concrete element index the flip landed in.
	Index int
	// Old and New are the float32 bit patterns before and after.
	Old, New uint32
}

// BitFlipInjector applies a BitFlipEvent schedule. It is shared by every
// rank goroutine of a run and survives restart attempts; all methods are
// concurrency-safe. Each event fires at most once — a replayed iteration
// after a repair does not re-inject.
type BitFlipInjector struct {
	mu     sync.Mutex
	events []BitFlipEvent
	fired  []bool
	log    []FiredFlip

	kernelCalls atomic.Uint64
}

// NewBitFlipInjector builds an injector over a schedule.
func NewBitFlipInjector(events []BitFlipEvent) *BitFlipInjector {
	return &BitFlipInjector{events: events, fired: make([]bool, len(events))}
}

// flipWord flips bit in buf[idx] and returns the old/new bit patterns.
func flipWord(buf []float32, idx int, bit uint) (old, nw uint32) {
	old = math.Float32bits(buf[idx])
	nw = old ^ (1 << bit)
	buf[idx] = math.Float32frombits(nw)
	return old, nw
}

// Flip fires any unfired event scheduled for (rank, iter, site) into buf,
// returning whether a flip was applied. Callers place it immediately
// before the corresponding integrity check so a fired flip is always in
// the detector's field of view.
func (in *BitFlipInjector) Flip(rank, iter int, site FlipSite, buf []float32) bool {
	if in == nil || len(buf) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, ev := range in.events {
		if in.fired[i] || ev.Site != site || ev.Rank != rank || ev.Iter != iter || ev.Site == FlipKernel {
			continue
		}
		in.fired[i] = true
		idx := int(ev.Word % uint64(len(buf)))
		old, nw := flipWord(buf, idx, ev.Bit)
		in.log = append(in.log, FiredFlip{Event: ev, Index: idx, Old: old, New: nw})
		return true
	}
	return false
}

// KernelHook returns the tensor.SetABFTFault hook implementing the
// schedule's FlipKernel events: the n-th verified matmul output (global
// ordinal n = Word % 1024) gets one bit flipped, once per event.
func (in *BitFlipInjector) KernelHook() func([]float32) {
	return func(dst []float32) {
		ord := in.kernelCalls.Add(1) - 1
		if len(dst) == 0 {
			return
		}
		in.mu.Lock()
		defer in.mu.Unlock()
		for i, ev := range in.events {
			if in.fired[i] || ev.Site != FlipKernel || ev.Word%1024 != ord%1024 {
				continue
			}
			in.fired[i] = true
			idx := int(ev.Word % uint64(len(dst)))
			old, nw := flipWord(dst, idx, ev.Bit)
			in.log = append(in.log, FiredFlip{Event: ev, Index: idx, Old: old, New: nw})
			return
		}
	}
}

// Fired returns how many scheduled events have fired.
func (in *BitFlipInjector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, f := range in.fired {
		if f {
			n++
		}
	}
	return n
}

// Pending returns the events that have not fired yet.
func (in *BitFlipInjector) Pending() []BitFlipEvent {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []BitFlipEvent
	for i, ev := range in.events {
		if !in.fired[i] {
			out = append(out, ev)
		}
	}
	return out
}

// Log returns a copy of the fired-flip records.
func (in *BitFlipInjector) Log() []FiredFlip {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]FiredFlip(nil), in.log...)
}
