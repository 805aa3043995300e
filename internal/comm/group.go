package comm

import (
	"fmt"
	"time"
)

// Group is a Transport view of a subset of a parent transport's ranks —
// the analogue of an MPI sub-communicator. Hybrid 2-D parallelism uses
// groups to run WeiPipe rings inside data-parallel replicas: each inner
// ring is a group, and each cross-replica gradient exchange is another.
//
// Tags are salted with the group id so that two groups (or a group and its
// parent) can never cross-match messages even when their protocols reuse
// the same (Kind, A, B) tuples.
type Group struct {
	parent Transport
	ranks  []int // group rank -> parent rank
	me     int   // my group rank
	salt   int
}

// NewGroup builds the group view of parent for the given parent ranks.
// salt must be unique among all groups sharing the parent (and non-zero to
// stay disjoint from un-salted parent traffic). The calling rank must be a
// member.
func NewGroup(parent Transport, ranks []int, salt int) (*Group, error) {
	if salt == 0 {
		return nil, fmt.Errorf("comm: group salt must be non-zero")
	}
	if len(ranks) == 0 {
		return nil, fmt.Errorf("comm: empty group")
	}
	me := -1
	seen := make(map[int]bool, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= parent.Size() {
			return nil, fmt.Errorf("comm: group rank %d outside parent size %d", r, parent.Size())
		}
		if seen[r] {
			return nil, fmt.Errorf("comm: duplicate rank %d in group", r)
		}
		seen[r] = true
		if r == parent.Rank() {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("comm: rank %d is not a member of the group %v", parent.Rank(), ranks)
	}
	return &Group{parent: parent, ranks: append([]int(nil), ranks...), me: me, salt: salt}, nil
}

// saltTag folds the group salt into the tag's B field high bits.
func (g *Group) saltTag(tag Tag) Tag {
	tag.B ^= g.salt << 55
	return tag
}

// Rank implements Transport (the group-local rank).
func (g *Group) Rank() int { return g.me }

// Size implements Transport (the group size).
func (g *Group) Size() int { return len(g.ranks) }

// Send implements Transport.
func (g *Group) Send(dst int, tag Tag, data []float32) error {
	if dst < 0 || dst >= len(g.ranks) {
		return fmt.Errorf("comm: group send to invalid rank %d", dst)
	}
	return g.parent.Send(g.ranks[dst], g.saltTag(tag), data)
}

// SendOwned implements Transport: donation passes straight through to the
// parent (with the group's rank mapping and tag salt), so a zero-copy
// parent keeps the handoff zero-copy inside a group. Ownership transfers
// even on the invalid-rank error path, matching the package contract.
func (g *Group) SendOwned(dst int, tag Tag, payload []float32) error {
	if dst < 0 || dst >= len(g.ranks) {
		Release(payload)
		return fmt.Errorf("comm: group send to invalid rank %d", dst)
	}
	return g.parent.SendOwned(g.ranks[dst], g.saltTag(tag), payload)
}

// Forward implements Transport, passing through to the parent like
// SendOwned.
func (g *Group) Forward(dst int, tag Tag, payload []float32) error {
	if dst < 0 || dst >= len(g.ranks) {
		Release(payload)
		return fmt.Errorf("comm: group send to invalid rank %d", dst)
	}
	return g.parent.Forward(g.ranks[dst], g.saltTag(tag), payload)
}

// SealsF32 implements Transport: the parent's answer for the salted tag.
func (g *Group) SealsF32(tag Tag) bool { return g.parent.SealsF32(g.saltTag(tag)) }

// CommStats implements Transport: groups share the parent's meter (their
// traffic is parent traffic).
func (g *Group) CommStats() *Stats { return g.parent.CommStats() }

// WireCodec implements Transport: a group's payloads travel on the parent's
// links, salted tag and all, so they get the parent's codec.
func (g *Group) WireCodec(tag Tag) WireCodec { return g.parent.WireCodec(g.saltTag(tag)) }

// Recv implements Transport.
func (g *Group) Recv(src int, tag Tag) ([]float32, error) {
	if src < 0 || src >= len(g.ranks) {
		return nil, fmt.Errorf("comm: group recv from invalid rank %d", src)
	}
	return g.parent.Recv(g.ranks[src], g.saltTag(tag))
}

// RecvTimeout implements Transport.
func (g *Group) RecvTimeout(src int, tag Tag, timeout time.Duration) ([]float32, error) {
	if src < 0 || src >= len(g.ranks) {
		return nil, fmt.Errorf("comm: group recv from invalid rank %d", src)
	}
	return g.parent.RecvTimeout(g.ranks[src], g.saltTag(tag), timeout)
}

// BeginRecovery implements Transport. Like Close it is a no-op that
// reports nothing: the parent owns the links, and whoever owns the parent
// runs its recovery.
func (g *Group) BeginRecovery() []int { return nil }

// Flush implements Transport; like Close it is a no-op: whoever owns the
// parent flushes it.
func (g *Group) Flush(time.Duration) error { return nil }

// Close implements Transport; closing a group is a no-op (the parent owns
// the resources).
func (g *Group) Close() error { return nil }

var _ Transport = (*Group)(nil)
