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
//     the belt never touches a boundary link. Round k+1's injection is sent
//     by the holder right after its own round-k consumption, so belt memory
//     stays bounded without any cross-group pacing.
//   - The gradient accumulator D is untouched: it still rides the flat ring
//     (its strict left-fold order is what makes runs bit-identical), and it
//     already crosses each boundary only once per round.
//
// The values every rank consumes are bit-identical to flat WZB2: the owner
// builds the payload the same way, the cache is rounded through the wire
// codec exactly once (idempotently re-applied on every later hop), and the
// CRC seal covers only the body, so a cached trailer survives re-sends.

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
	// releaseCache: every injection and every self-held use shares the
	// cached buffer (comm.Retain) instead of copying it.
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

// cachePayload rounds payload's body into the wire-value domain — the codec
// the transport sends chunk c under, with or without Options.Integrity — and
// caches it, taking ownership. Transport-received payloads are already
// rounded (RoundToWire is idempotent); the rounding matters for the owner's
// self-held copy, which never crossed a link. It is the last write the
// buffer sees: from here it is only ever shared.
func (w *WeiPipe) cachePayload(c int, payload []float32) {
	comm.RoundToWire(w.t.WireCodec(w.xchgTag(c, 0)), w.beltBody(payload))
	w.grouped.cache[c] = payload
}

// sendCached ships chunk c's cached payload to dst over t under tag without
// copying it: the cache keeps its reference and the transport takes another.
// It forwards (Transport.Forward): a cached chunk is either one this rank
// received and has not written since — cachePayload's rounding leaves a
// received payload's bits as they are — or the owner's own, which has no
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
	// would (copy, seal), then hand it to its local holder: cache it here,
	// or send it as holder-ring hop 0.
	payload := w.ownedPayload(w.xchgTag(w.ownChunk, 0))
	if h0 := g.holderIn(g.g, w.ownChunk); h0 == rank {
		// Owner is the holder: the chain's first hop is ours to send.
		w.cachePayload(w.ownChunk, payload)
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
		w.cachePayload(c, payload)
		if hop < g.nG-1 {
			if err := w.sendCached(w.t, g.holderIn((g.g+1)%g.nG, c), w.xchgTag(c, hop+1), c); err != nil {
				return err
			}
		}
	}

	// 3. Round-0 injections: each held chunk enters both weight belts at
	// the group's first rank under the flat belt tags (use index = first's
	// microbatch index). Chunks held *by* the first rank are consumed
	// straight from the cache — no message at all.
	for _, c := range g.heldChunks(p, rank) {
		if g.holderLocal(c) == 0 {
			continue
		}
		for _, belt := range []int{beltFwd, beltBwd} {
			if err := w.sendCached(g.grp, 0, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, g.first)}, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// recvBeltChunkGrouped is the grouped-belt analogue of recvBeltChunk: the
// weight belt lives on the group sub-transport, the group's first rank is
// fed by the chunk's holder (or its own cache), the last rank never
// relays, and the holder paces round k+1's injection off its own round-k
// consumption.
func (w *WeiPipe) recvBeltChunkGrouped(belt, c, use int) error {
	g := w.grouped
	i := w.t.Rank() - g.first
	var payload []float32
	if i == 0 && g.holderLocal(c) == 0 {
		// First rank holds the chunk itself: compute out of the cache, no
		// message. Only the chaos injector, which writes what it is handed,
		// gets a copy of its own.
		payload = g.cache[c]
		if w.opts.BitFlip == nil {
			comm.Retain(payload)
		} else {
			payload = append(comm.GetBuf(len(payload))[:0], payload...)
		}
	} else {
		src := i - 1
		if i == 0 {
			src = g.holderLocal(c)
		}
		var err error
		payload, err = w.beltRecvOn(g.grp, src, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use)})
		if err != nil {
			comm.Release(payload)
			return err
		}
	}
	relayTo := -1
	if i < g.m-1 {
		relayTo = i + 1
	}
	if err := w.installBelt(g.grp, belt, c, use, payload, relayTo); err != nil {
		return err
	}
	// Holder re-injection: our own consumption of round k frees the belt
	// slot round k+1's injection will fill, so sending here bounds the
	// group's in-flight belt copies exactly as the flat ring's hop-by-hop
	// pacing does. Self-held chunks (holder == first) re-enter from the
	// cache without a message.
	if g.holderLocal(c) == i && i != 0 {
		if k := use / w.t.Size(); k+1 < w.curR {
			return w.sendCached(g.grp, 0, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, (k+1)*w.t.Size()+g.first)}, c)
		}
	}
	return nil
}
