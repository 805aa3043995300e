package pipeline

import (
	"fmt"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
)

// Elastic repair: when ranks die mid-run, the survivors already hold every
// piece of the lost trainer state — each dead rank's owned chunk lives on
// as its predecessor's buddy shadow (buddy.go). Repair therefore never
// reads a checkpoint. There is one repair ladder, and RunRank, the one
// training loop, climbs it wherever repair is on: in each process of a
// weipipe-launch fleet, and in RunResilient's goroutine ranks under an
// elastic policy.
//
//  1. Detect: a rank's error goes through failureOutcome (rankrun.go). A
//     rank whose own state is suspect (an injected crash, a detected
//     integrity violation) closes its endpoint and aborts as dead; every
//     fabric turns a closed endpoint into a *comm.PeerDeadError at the
//     survivors.
//  2. Agree: the survivors run comm.AgreeOverTransport over the typed
//     evidence, with the quorum and eviction guards.
//  3. Harvest: wireHarvest fixes the cut (the minimum committed step phase
//     across survivors, with the one-deep rollback bridging ranks that
//     already stepped past it) and rebuilds the full-state snapshot on
//     every survivor, each chunk from its owner or, when the owner died,
//     from the owner's buddy (chunkSource).
//  4. Plan: the supervisor checks the survivors' snapshots are
//     bit-identical and PlanRepair picks the next world — spares admitted,
//     or a shrink, or checkpoint restart when neither is valid.
//
// Re-sharding is free: the snapshot is world-size-agnostic, so
// RestoreSnapshot re-partitions it across the new world exactly as it
// would a checkpoint — but from live, zero-iteration-loss state. A
// coordinated checkpoint in RunRank is the same exchange of shares with
// nobody dead.

// ElasticPolicy selects how RunResilient reacts to dead ranks.
type ElasticPolicy int

const (
	// ElasticNone restores from the last checkpoint.
	ElasticNone ElasticPolicy = iota
	// ElasticShrink repairs by re-sharding across the survivors (world
	// size drops by the number of dead ranks), rebuilding lost shards from
	// buddy replicas. Falls back to checkpoint restart when repair is
	// impossible (no quorum, a buddy died too, or the shrunken world is
	// invalid).
	ElasticShrink
	// ElasticSpare repairs by admitting standby spares (world size is
	// preserved while RunSpec.Spares last), seeding the
	// replacement ranks from the harvested snapshot; once spares run out
	// it shrinks, and as a last resort falls back to checkpoint restart.
	ElasticSpare
)

// String names the policy (CLI flag values).
func (e ElasticPolicy) String() string {
	switch e {
	case ElasticShrink:
		return "shrink"
	case ElasticSpare:
		return "spare"
	}
	return "none"
}

// MarshalText implements encoding.TextMarshaler: a RunSpec carries the
// policy by name, in JSON and on the command line.
func (e ElasticPolicy) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (e *ElasticPolicy) UnmarshalText(b []byte) error {
	for _, p := range []ElasticPolicy{ElasticNone, ElasticShrink, ElasticSpare} {
		if string(b) == p.String() {
			*e = p
			return nil
		}
	}
	return fmt.Errorf("unknown elastic policy %q (none, shrink, spare)", b)
}

// RepairEvent describes one elastic repair RunResilient performed.
type RepairEvent struct {
	// Attempt is the attempt index that failed and was repaired.
	Attempt int
	// Iteration is the repair cut: the snapshot resumes from this many
	// completed iterations — no survivor progress is discarded beyond the
	// iteration in flight when the failure hit.
	Iteration int
	// Dead lists the lost old-world ranks (sorted).
	Dead []int
	// Policy is the repair actually applied (shrink or spare).
	Policy ElasticPolicy
	// OldSize and NewSize are the world sizes before and after repair.
	OldSize, NewSize int
	// Snapshot is the harvested full trainer state the new world started
	// from — assembled from surviving owners and buddy replicas, never
	// from disk.
	Snapshot *checkpoint.Snapshot
}

// ValidWorld is the one rule for the world a repair or a checkpoint
// restart may form: 2 ≤ world ≤ modules (cfg.Layers+2), so every rank owns
// a WeiPipe chunk or a stage, and microbatches % world == 0.
func ValidWorld(world, modules, microbatches int) bool {
	return world >= 2 && world <= modules && microbatches%world == 0
}

// PlanRepair is the repair ladder's one planner, shared by RunResilient
// and the launch supervisor: after a failure whose survivors harvested a
// snapshot, it admits spares while standbys last, dropping admissions until
// the world is valid (ValidWorld). Admitting none is a shrink. ok is false
// when no world is valid (or nobody survived); the driver then falls back
// to its checkpoint restart.
func PlanRepair(survivors, dead, spares, modules, microbatches int) (admit int, ok bool) {
	if survivors < 1 {
		return 0, false
	}
	for admit = min(dead, spares); admit >= 0; admit-- {
		if ValidWorld(survivors+admit, modules, microbatches) {
			return admit, true
		}
	}
	return 0, false
}

// chunkSource decides which survivor supplies chunk c's state once the
// dead set is agreed: the chunk's owner when it survived, the owner's
// buddy otherwise. fromBuddy tells the source which replica to export.
func chunkSource(c int, m comm.Membership) (rank int, fromBuddy bool, err error) {
	p := m.OldSize
	owner := (c - 1 + p) % p
	if !m.IsDead(owner) {
		return owner, false, nil
	}
	buddy := (owner - 1 + p) % p
	if m.IsDead(buddy) {
		return 0, false, fmt.Errorf("pipeline: chunk %d unrecoverable: owner %d and buddy %d both dead", c, owner, buddy)
	}
	return buddy, true, nil
}
