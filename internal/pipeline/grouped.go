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
// (Options.GroupSize — servers, NVLink islands) and restructures the weight
// belts so each chunk crosses the slow links exactly once per iteration:
//
//   - Shard exchange (iteration start): chunk c's owner builds the sealed
//     belt payload exactly as the flat injection would, hands it to the
//     chunk's local holder (rank group·m + c mod m), and the holders
//     store-and-forward it around the *holder ring* — one hop per group
//     boundary, G−1 inter-group sends in total. Every group ends up with a
//     cached copy of every chunk; one copy serves both weight belts (the
//     ×2 dedup) and all R rounds (the ×R dedup).
//   - Intra-group circulation: each round the holder injects its cached
//     chunk to the group's first rank over the group sub-transport
//     (comm.Group), the chunk relays member-to-member on fast intra links
//     with the *flat* belt tags, and the group's last rank never forwards —
//     the belt never touches a boundary link. As on the flat belt, a rank
//     never receives a chunk it holds (order.Holds): the holder serves its
//     own use from the cache and relays from it, and a holder that is the
//     group's first rank injects nothing. Round k+1's injection is sent by
//     the holder right after its own round-k consumption, so belt memory
//     stays bounded without any cross-group pacing. A round the plan serves
//     from kept copies (order.BeltPlan) travels nowhere: the holder skips
//     its injection, and paces the next shipped round's off its own pass on
//     that belt, kept-served or not.
//   - The gradient accumulator D is untouched: it follows the flat ring's
//     gradient chain (order.GradChain), whose fold order every belt shares,
//     which is what makes runs bit-identical, and it already crosses each
//     boundary only once per round.
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
	m     int // group size
	g     int // this rank's group index
	first int // global rank of the group's first member
	nG    int // number of groups
	grp   *comm.Group
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
	w, err := NewWeiPipe(t, cfg, opts, WeiPipeZB2)
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
	if groupedSaltBase+p/gs > 255 { // group salts must fit the tag salt field
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
		g:     g,
		first: g * m,
		nG:    p / m,
		grp:   grp,
		cache: make(map[int][]float32, p/m),
	}
	w.stats.SetGroupSize(m)
	return nil
}

// holderLocal returns the group-local rank holding chunk c (every group
// holds every chunk; member i holds the chunks with c mod m == i).
func (gs *groupedState) holderLocal(c int) int { return c % gs.m }

// holderIn returns the global rank holding chunk c in group g.
func (gs *groupedState) holderIn(g, c int) int { return g*gs.m + c%gs.m }

// heldChunks returns the chunks this rank holds, ascending.
func (gs *groupedState) heldChunks(p, rank int) []int {
	i := rank - gs.first
	held := make([]int, 0, gs.nG)
	for c := i; c < p; c += gs.m {
		held = append(held, c)
	}
	return held
}

// releaseCache returns the iteration's cached payloads to the pool.
// Idempotent (deferred before the exchange runs, so aborts leak nothing).
func (gs *groupedState) releaseCache() {
	for c, buf := range gs.cache {
		comm.Release(buf)
		delete(gs.cache, c)
	}
}

// xchgTag tags holder-ring hop `hop` of chunk c's shard exchange.
func (w *WeiPipe) xchgTag(c, hop int) Tag {
	return Tag{Kind: comm.KindWeight, A: c, B: w.enc(beltXchg, hop)}
}

// sendCached ships chunk c's cached payload to dst over t under tag without
// copying it: the cache keeps its reference and the transport takes another.
// It forwards (Transport.Forward): a cached chunk is either one this rank
// received and has not written since, or the owner's own, which has no
// verified checksum to reuse and gets a full seal.
func (w *WeiPipe) sendCached(t Transport, dst int, tag Tag, c int) error {
	payload := w.grouped.cache[c]
	comm.Retain(payload)
	return t.Forward(dst, tag, payload)
}

// groupedExchange runs the iteration-start shard exchange and the round-0
// belt injections. On return every held chunk is cached and the group's
// first rank can start consuming; errors leave the cache releasable.
func (w *WeiPipe) groupedExchange() error {
	g := w.grouped
	p, rank := w.t.Size(), w.t.Rank()

	// 1. Build the owned chunk's belt payload exactly as the flat injection
	// would (copy, round to the wire's values, seal), then hand it to its
	// local holder: cache it here, or send it as holder-ring hop 0.
	payload := w.ownedPayload(w.xchgTag(w.ownChunk, 0))
	if h0 := g.holderIn(g.g, w.ownChunk); h0 == rank {
		// Owner is the holder: the chain's first hop is ours to send.
		g.cache[w.ownChunk] = payload
		if g.nG > 1 {
			if err := w.sendCached(w.t, g.holderIn((g.g+1)%g.nG, w.ownChunk), w.xchgTag(w.ownChunk, 1), w.ownChunk); err != nil {
				return err
			}
		}
	} else {
		if err := w.t.SendOwned(h0, w.xchgTag(w.ownChunk, 0), payload); err != nil {
			return err
		}
	}

	// 2. Receive every other held chunk: from its owner when it originates
	// in this group (hop 0), else from the previous group's holder; cache
	// and forward (store-and-forward) until the chain has visited all
	// groups. Chains of distinct chunks are independent, so a fixed receive
	// order cannot deadlock.
	for _, c := range g.heldChunks(p, rank) {
		ownerG := w.owner(c) / g.m
		hop := (g.g - ownerG + g.nG) % g.nG
		if hop == 0 && w.owner(c) == rank {
			continue // the self-cached owned chunk above
		}
		src := w.owner(c)
		if hop > 0 {
			src = g.holderIn((g.g-1+g.nG)%g.nG, c)
		}
		payload, err := w.beltRecv(src, w.xchgTag(c, hop))
		if err != nil {
			comm.Release(payload)
			return err
		}
		// Verify before caching or forwarding: a corrupt shard must neither
		// seed R rounds of local consumption nor travel on.
		if verr := w.verifyBelt(comm.SiteBelt, comm.KindWeight, c, payload); verr != nil {
			comm.Release(payload)
			return verr
		}
		g.cache[c] = payload
		if hop < g.nG-1 {
			if err := w.sendCached(w.t, g.holderIn((g.g+1)%g.nG, c), w.xchgTag(c, hop+1), c); err != nil {
				return err
			}
		}
	}

	// 3. Round-0 injections: each held chunk enters both weight belts at
	// the group's first rank under the flat belt tags (use index = first's
	// microbatch index) — unless the first rank is the holder, which serves
	// itself.
	for _, c := range g.heldChunks(p, rank) {
		if w.holds(g.first, c) {
			continue
		}
		for _, belt := range []int{beltFwd, beltBwd} {
			if !w.plan.ships(belt, c, 0) {
				continue // round 0 runs on kept copies
			}
			if err := w.sendCached(g.grp, 0, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, g.first)}, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// recvBeltGrouped is the grouped-belt analogue of the flat receive in
// recvBelt: the weight belt lives on the group sub-transport, and the
// group's first rank is fed by the chunk's holder.
func (w *WeiPipe) recvBeltGrouped(belt, c, use int) ([]float32, error) {
	g := w.grouped
	src := w.t.Rank() - g.first - 1
	if src < 0 {
		src = g.holderLocal(c)
	}
	return w.beltRecvOn(g.grp, src, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use)})
}

// reinjectGrouped is the holder's pacing: its own round-k pass on belt —
// served from its cache or from a kept copy — frees the belt slot round
// k+1's injection will fill, so sending here bounds the group's in-flight
// belt copies exactly as the flat ring's hop-by-hop pacing does. A round the
// plan serves from kept copies gets no injection, and neither does a group
// whose first rank is the holder.
func (w *WeiPipe) reinjectGrouped(belt, c, use int) error {
	g := w.grouped
	p := w.t.Size()
	if !w.holds(w.t.Rank(), c) || w.holds(g.first, c) {
		return nil
	}
	if k := use / p; k+1 < w.curR && w.plan.ships(belt, c, k+1) {
		return w.sendCached(g.grp, 0, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, (k+1)*p+g.first)}, c)
	}
	return nil
}
