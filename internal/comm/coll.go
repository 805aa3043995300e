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

// RingAllReduceSum sums data elementwise across all ranks, in place, using
// the 2(p−1)-step ring algorithm. All ranks must pass equal-length slices.
func RingAllReduceSum(t Transport, data []float32, seq int) error {
	p := t.Size()
	if p == 1 {
		return nil
	}
	r := t.Rank()
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	shards := ShardRanges(len(data), p)

	// Phase 1: reduce-scatter. After p−1 steps rank r holds the full sum of
	// shard (r+1) mod p.
	for step := 0; step < p-1; step++ {
		sendID := (r - step + p) % p
		recvID := (r - step - 1 + p) % p
		s := shards[sendID]
		if err := t.Send(next, Tag{Kind: KindColl, A: seq, B: step}, data[s[0]:s[1]]); err != nil {
			return err
		}
		buf, err := t.Recv(prev, Tag{Kind: KindColl, A: seq, B: step})
		if err != nil {
			return err
		}
		rg := shards[recvID]
		dst := data[rg[0]:rg[1]]
		if len(buf) != len(dst) {
			return fmt.Errorf("comm: allreduce shard size mismatch %d != %d", len(buf), len(dst))
		}
		tensor.AddIntoF32(dst, buf)
		Release(buf)
	}
	// Phase 2: all-gather the reduced shards.
	for step := 0; step < p-1; step++ {
		sendID := (r + 1 - step + p) % p
		recvID := (r - step + p) % p
		s := shards[sendID]
		if err := t.Send(next, Tag{Kind: KindColl, A: seq, B: p + step}, data[s[0]:s[1]]); err != nil {
			return err
		}
		buf, err := t.Recv(prev, Tag{Kind: KindColl, A: seq, B: p + step})
		if err != nil {
			return err
		}
		rg := shards[recvID]
		copy(data[rg[0]:rg[1]], buf)
		Release(buf)
	}
	return nil
}

// ReduceScatterSum sums data across ranks and returns this rank's shard
// (shard boundaries per ShardRanges) in a pool buffer the caller owns and
// may Release. data is clobbered.
func ReduceScatterSum(t Transport, data []float32, seq int) ([]float32, error) {
	p := t.Size()
	r := t.Rank()
	shards := ShardRanges(len(data), p)
	if p == 1 {
		out := GetBuf(len(data))
		copy(out, data)
		return out, nil
	}
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sendID := (r - step + p) % p
		recvID := (r - step - 1 + p) % p
		s := shards[sendID]
		if err := t.Send(next, Tag{Kind: KindColl, A: seq, B: step}, data[s[0]:s[1]]); err != nil {
			return nil, err
		}
		buf, err := t.Recv(prev, Tag{Kind: KindColl, A: seq, B: step})
		if err != nil {
			return nil, err
		}
		rg := shards[recvID]
		dst := data[rg[0]:rg[1]]
		if len(buf) != len(dst) {
			return nil, fmt.Errorf("comm: reduce-scatter shard size mismatch %d != %d", len(buf), len(dst))
		}
		tensor.AddIntoF32(dst, buf)
		Release(buf)
	}
	// After p−1 steps this rank holds the full sum of shard (r+1) mod p, and
	// shard r sits on rank r−1 — rotate one more hop forward so rank r owns
	// shard r, the layout FSDP expects.
	ownedID := (r + 1) % p
	og := shards[ownedID]
	if err := t.Send(next, Tag{Kind: KindColl, A: seq, B: p}, data[og[0]:og[1]]); err != nil {
		return nil, err
	}
	buf, err := t.Recv(prev, Tag{Kind: KindColl, A: seq, B: p})
	if err != nil {
		return nil, err
	}
	myRange := shards[r]
	if len(buf) != myRange[1]-myRange[0] {
		return nil, fmt.Errorf("comm: reduce-scatter final shard mismatch")
	}
	return buf, nil
}

// AllGather concatenates each rank's shard into the full vector. shardLens
// gives every rank's shard length (all ranks pass the same slice); mine must
// have length shardLens[rank]. The result is drawn from the payload pool —
// callers that Release it (FSDP does, per module per pass) feed the pool
// exactly what the next gather takes out — and every element of it is
// written: this rank's shard here, every other shard by its ring step.
func AllGather(t Transport, mine []float32, shardLens []int, seq int) ([]float32, error) {
	p := t.Size()
	r := t.Rank()
	if len(shardLens) != p {
		return nil, fmt.Errorf("comm: shardLens has %d entries for %d ranks", len(shardLens), p)
	}
	if len(mine) != shardLens[r] {
		return nil, fmt.Errorf("comm: shard length %d != declared %d", len(mine), shardLens[r])
	}
	offsets := make([]int, p+1)
	for i := 0; i < p; i++ {
		offsets[i+1] = offsets[i] + shardLens[i]
	}
	out := GetBuf(offsets[p])
	copy(out[offsets[r]:offsets[r+1]], mine)
	if p == 1 {
		return out, nil
	}
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sendID := (r - step + p) % p
		recvID := (r - step - 1 + p) % p
		if err := t.Send(next, Tag{Kind: KindColl, A: seq, B: step}, out[offsets[sendID]:offsets[sendID+1]]); err != nil {
			return nil, err
		}
		buf, err := t.Recv(prev, Tag{Kind: KindColl, A: seq, B: step})
		if err != nil {
			return nil, err
		}
		copy(out[offsets[recvID]:offsets[recvID+1]], buf)
		Release(buf)
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
