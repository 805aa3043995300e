package pipeline

import (
	"fmt"

	"weipipe/internal/comm"
	"weipipe/internal/model"
)

// Topology-aware grouped weight belts (strategy "wzb2g"; DESIGN.md §16).
//
// The flat belt ships every weight chunk across every ring link each round,
// so on hierarchical clusters the slow inter-group links carry the whole
// belt. The grouped belt splits the ring into contiguous groups of m ranks
// (Options.GroupSize — servers, NVLink islands) so each chunk crosses the
// slow links once per iteration. Its messages are order.Wiring's rows at
// m > 1, which the WeiPipe runtime sends and receives as it does the flat
// ring's (weipipe.go); this file only builds the group:
//
//   - the shard exchange ('X' rows, iteration start): chunk c's owner hands
//     the sealed belt payload, built exactly as the flat injection's, to its
//     group's holder (rank group·m + c mod m, order.Holds), and the holders
//     store-and-forward it around the holder ring, one hop per group
//     boundary. Every group caches every chunk, and one cached copy serves
//     both weight belts and all R rounds;
//   - the circulation ('F' and 'B' rows on the group sub-transport,
//     comm.Group, under the flat belt tags): the holder injects each shipped
//     round into the group's first rank — round 0 at iteration start, round
//     k+1 from its own pass on round k, which bounds the group's in-flight
//     copies without cross-group pacing — and the chunk relays member to
//     member; the group's last rank never forwards, so the belt never
//     touches a boundary link;
//   - the gradient ('D' and 'R' rows) follows the flat ring's chain
//     (order.GradChain), whose fold order every belt shares.
//
// The values every rank consumes are bit-identical to flat WZB2: the owner
// builds the payload the same way, rounded to the wire codec's values
// (idempotently re-applied on every later hop), and the CRC seal covers
// only the body, so a cached trailer survives re-sends.

// beltXchg is the spare belt id (< beltCount) tagging shard-exchange hops;
// its use field is the holder-ring hop index.
const beltXchg = 3

// groupedSaltBase salts the per-group sub-transports (group g uses
// groupedSaltBase+g), clear of the WeiPipeDP salts (replica id + 64+rank).
const groupedSaltBase = 200

// groupedState is the per-rank runtime of the grouped belt.
type groupedState struct {
	m   int // group size
	grp *comm.Group
	// cache maps chunk id -> this group's sealed, wire-rounded belt payload
	// for the current iteration. Filled by the exchange and immutable until
	// releaseCache: every injection and every use the holder serves itself
	// shares the cached buffer (comm.Retain) instead of copying it.
	cache map[int][]float32
}

// NewWeiPipeGrouped builds the wzb2g trainer: WZB2 compute order with
// grouped weight belts. An unusable group size (not dividing the ring, or
// group count exceeding the salt space) falls back to the flat belt, which
// keeps elastic shrink-to-p−1 rebuilds working.
func NewWeiPipeGrouped(t Transport, cfg model.Config, opts Options) (Trainer, error) {
	w, err := NewWeiPipe(t, cfg, opts, StrategyWZB2)
	if err != nil {
		return nil, err
	}
	if m := normalizeGroupSize(opts.GroupSize, t.Size()); m > 1 {
		if err := w.initGrouped(m); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// normalizeGroupSize resolves Options.GroupSize against ring size p.
// Returns 1 (flat belt) when grouping is impossible.
func normalizeGroupSize(gs, p int) int {
	if p < 2 {
		return 1
	}
	if gs == 0 {
		// Topology-friendly default: 4-rank servers when they fit, else pairs.
		switch {
		case p%4 == 0 && p >= 8:
			gs = 4
		case p%2 == 0:
			gs = 2
		default:
			return 1
		}
	}
	if gs <= 1 || p%gs != 0 {
		return 1
	}
	if groupedSaltBase+p/gs-1 > 255 { // group salts must fit the tag salt field
		return 1
	}
	return gs
}

// initGrouped carves this rank's group sub-transport out of the ring and
// arms link-tier accounting.
func (w *WeiPipe) initGrouped(m int) error {
	p := w.t.Size()
	g := w.t.Rank() / m
	ranks := make([]int, m)
	for i := range ranks {
		ranks[i] = g*m + i
	}
	grp, err := comm.NewGroup(w.t, ranks, groupedSaltBase+g)
	if err != nil {
		return fmt.Errorf("pipeline: grouped belt: %w", err)
	}
	w.grouped = &groupedState{
		m:     m,
		grp:   grp,
		cache: make(map[int][]float32, p/m),
	}
	w.stats.SetGroupSize(m)
	return nil
}

// releaseCache returns the iteration's cached payloads to the pool.
// Idempotent (deferred before the exchange runs, so aborts leak nothing).
func (gs *groupedState) releaseCache() {
	for c, buf := range gs.cache {
		comm.Release(buf)
		delete(gs.cache, c)
	}
}
