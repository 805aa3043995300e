package comm

import (
	"fmt"

	"weipipe/internal/tensor"
)

// This file implements ring collectives on top of the P2P Transport. They
// follow NCCL's ring algorithms (the configuration the paper measured
// against): all-reduce is reduce-scatter + all-gather, each moving
// (p−1)/p · bytes per rank per phase around the ring.
//
// Every collective call takes a seq number that must be identical across
// ranks for one logical operation and unique per operation between any two
// operations that could otherwise interleave; it namespaces the wire tags.

// ShardRanges splits a vector of length n into p contiguous shards as evenly
// as possible: shard i is [i*n/p, (i+1)*n/p).
func ShardRanges(n, p int) [][2]int {
	out := make([][2]int, p)
	for i := 0; i < p; i++ {
		out[i] = [2]int{i * n / p, (i + 1) * n / p}
	}
	return out
}

// ShardOf returns the shard of a p-way split that rank r ends a ring
// reduce-scatter holding in full — (r+1) mod p — and so the shard it owns
// and contributes to AllGather.
func ShardOf(r, p int) int { return (r + 1) % p }

// RingAllReduceSum sums data elementwise across all ranks, in place, using
// the 2(p−1)-step ring algorithm. All ranks must pass equal-length slices.
func RingAllReduceSum(t Transport, data []float32, seq int) error {
	p := t.Size()
	if p == 1 {
		return nil
	}
	shards := ShardRanges(len(data), p)
	if err := reduceScatter(t, data, shards, seq); err != nil {
		return err
	}
	own := shards[ShardOf(t.Rank(), p)]
	if err := t.Send((t.Rank()+1)%p, Tag{Kind: KindColl, A: seq, B: p}, data[own[0]:own[1]]); err != nil {
		return err
	}
	return ringGather(t, data, shards, seq, p)
}

// reduceScatter runs the ring's p−1 reduce steps over data, tagged B = 0 …
// p−2. After step s rank r has added its copy of shard (r−s−1) mod p into
// the partial sum it received, so after the last step it holds the full sum
// of shard ShardOf(r, p). A partial sum that travels on is summed into the
// buffer it arrived in and sent owned, with no copy; IEEE addition is
// commutative, so every element's sum is the same whichever operand holds
// it. Only the last step adds into data.
func reduceScatter(t Transport, data []float32, shards [][2]int, seq int) error {
	p, r := t.Size(), t.Rank()
	next, prev := (r+1)%p, (r-1+p)%p
	own := shards[r]
	if err := t.Send(next, Tag{Kind: KindColl, A: seq, B: 0}, data[own[0]:own[1]]); err != nil {
		return err
	}
	for step := 0; step < p-1; step++ {
		buf, err := t.Recv(prev, Tag{Kind: KindColl, A: seq, B: step})
		if err != nil {
			return err
		}
		rg := shards[(r-step-1+p)%p]
		dst := data[rg[0]:rg[1]]
		if len(buf) != len(dst) {
			Release(buf)
			return fmt.Errorf("comm: reduce-scatter shard size mismatch %d != %d", len(buf), len(dst))
		}
		if step == p-2 {
			tensor.AddIntoF32(dst, buf)
			Release(buf)
			break
		}
		tensor.AddIntoF32(buf, dst)
		if err := t.SendOwned(next, Tag{Kind: KindColl, A: seq, B: step + 1}, buf); err != nil {
			return err
		}
	}
	return nil
}

// ringGather runs the ring's p−1 all-gather steps over data, tagged B =
// base … base+p−2, from the layout reduceScatter leaves: rank r holds shard
// ShardOf(r, p) and receives shard (r−s) mod p at step s. The caller has
// sent its own shard, tagged base, to the next rank. The shard it sends at
// step s+1 is the one it received at step s, so from the second step on it
// forwards the received buffer (Forward) instead of copying the shard back
// out of data.
func ringGather(t Transport, data []float32, shards [][2]int, seq, base int) error {
	p, r := t.Size(), t.Rank()
	next, prev := (r+1)%p, (r-1+p)%p
	for step := 0; step < p-1; step++ {
		buf, err := t.Recv(prev, Tag{Kind: KindColl, A: seq, B: base + step})
		if err != nil {
			return err
		}
		rg := shards[(r-step+p)%p]
		if len(buf) != rg[1]-rg[0] {
			Release(buf)
			return fmt.Errorf("comm: all-gather shard size mismatch %d != %d", len(buf), rg[1]-rg[0])
		}
		copy(data[rg[0]:rg[1]], buf)
		if step == p-2 {
			Release(buf)
			break
		}
		if err := t.Forward(next, Tag{Kind: KindColl, A: seq, B: base + step + 1}, buf); err != nil {
			return err
		}
	}
	return nil
}

// ReduceScatterSum sums data across ranks with the ring's p−1 reduce steps
// and returns the shard this rank then holds in full: shard ShardOf(rank, p)
// of ShardRanges(len(data), p), as a subslice of data (no copy). The rest of
// data is clobbered.
func ReduceScatterSum(t Transport, data []float32, seq int) ([]float32, error) {
	p := t.Size()
	shards := ShardRanges(len(data), p)
	if p > 1 {
		if err := reduceScatter(t, data, shards, seq); err != nil {
			return nil, err
		}
	}
	own := shards[ShardOf(t.Rank(), p)]
	return data[own[0]:own[1]], nil
}

// AllGather concatenates the ranks' shards into the full vector. shardLens
// gives every shard's length in vector order (all ranks pass the same
// slice); rank r contributes shard ShardOf(r, p) — the layout
// ReduceScatterSum leaves — so mine must have length shardLens[ShardOf(r,
// p)]. The result is drawn from the payload pool — callers that Release it
// (FSDP does, per module per pass) feed the pool exactly what the next
// gather takes out — and every element of it is written: this rank's shard
// here, every other shard by its ring step.
//
// mine leaves for the next rank in place (Retain, then Forward), not as a
// copy: it must be a buffer nobody writes while it is shared, and its owner
// waits with AwaitSole before it writes it again, since the transport may
// still hold it after AllGather returns. Sealed (Seal) since its last
// write, it is sent without being read again.
func AllGather(t Transport, mine []float32, shardLens []int, seq int) ([]float32, error) {
	p := t.Size()
	if len(shardLens) != p {
		return nil, fmt.Errorf("comm: shardLens has %d entries for %d ranks", len(shardLens), p)
	}
	own := ShardOf(t.Rank(), p)
	if len(mine) != shardLens[own] {
		return nil, fmt.Errorf("comm: shard length %d != declared %d", len(mine), shardLens[own])
	}
	shards := make([][2]int, p)
	off := 0
	for i, n := range shardLens {
		shards[i] = [2]int{off, off + n}
		off += n
	}
	out := GetBuf(off)
	copy(out[shards[own][0]:shards[own][1]], mine)
	if p == 1 {
		return out, nil
	}
	Retain(mine)
	if err := t.Forward((t.Rank()+1)%p, Tag{Kind: KindColl, A: seq, B: 0}, mine); err != nil {
		Release(out)
		return nil, err
	}
	if err := ringGather(t, out, shards, seq, 0); err != nil {
		Release(out)
		return nil, err
	}
	return out, nil
}

// Broadcast distributes root's data to every rank around the ring and
// returns each rank's copy (root gets its input back unmodified).
func Broadcast(t Transport, root int, data []float32, seq int) ([]float32, error) {
	p := t.Size()
	if p == 1 {
		return data, nil
	}
	r := t.Rank()
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	if r == root {
		if err := t.Send(next, Tag{Kind: KindColl, A: seq, B: 0}, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	buf, err := t.Recv(prev, Tag{Kind: KindColl, A: seq, B: 0})
	if err != nil {
		return nil, err
	}
	if next != root {
		if err := t.Send(next, Tag{Kind: KindColl, A: seq, B: 0}, buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Barrier blocks until every rank has entered it.
func Barrier(t Transport, seq int) error {
	p := t.Size()
	if p == 1 {
		return nil
	}
	r := t.Rank()
	if r == 0 {
		for src := 1; src < p; src++ {
			if _, err := t.Recv(src, Tag{Kind: KindColl, A: seq, B: -1}); err != nil {
				return err
			}
		}
		for dst := 1; dst < p; dst++ {
			if err := t.Send(dst, Tag{Kind: KindColl, A: seq, B: -2}, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := t.Send(0, Tag{Kind: KindColl, A: seq, B: -1}, nil); err != nil {
		return err
	}
	_, err := t.Recv(0, Tag{Kind: KindColl, A: seq, B: -2})
	return err
}

// AllReduceScalarSum sums one float64 across ranks (used for loss logging).
func AllReduceScalarSum(t Transport, v float64, seq int) (float64, error) {
	buf := []float32{float32(v)}
	if err := RingAllReduceSum(t, buf, seq); err != nil {
		return 0, err
	}
	return float64(buf[0]), nil
}
