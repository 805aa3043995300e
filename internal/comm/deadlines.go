package comm

import "time"

// Deadlines is the single timeout budget shared by every layer of the
// resilience stack: the transport's failure detector, the membership
// agreement protocol, the training-loop barriers and the supervisor's
// stall monitor all derive their deadlines from one struct instead of
// hardcoding their own. The derivation rules keep the layers ordered so
// they stop racing each other:
//
//		Retransmit  <  Heartbeat  <  PeerDead  <  AgreeRound  <  Barrier
//
//	  - The link-layer failure detector (PeerDead) always fires before any
//	    protocol-level timeout, so a blocked receive fails with a typed
//	    *PeerDeadError naming the culprit instead of an anonymous timeout —
//	    the difference between precise failure evidence and guesswork.
//	  - One agreement round (AgreeRound) outlives PeerDead plus retransmit
//	    slack, so a live-but-slow peer whose frames are being re-sent is
//	    never mistaken for a dead one during evidence exchange.
//	  - The iteration barrier (Barrier) outlives AgreeRound, so ranks that
//	    entered membership agreement are never timed out by peers still
//	    parked at the previous barrier.
type Deadlines struct {
	// Dial bounds the whole initial mesh bring-up.
	Dial time.Duration
	// Heartbeat is the idle-link heartbeat period.
	Heartbeat time.Duration
	// PeerDead is how long a peer may stay silent before the failure
	// detector declares it dead.
	PeerDead time.Duration
	// Retransmit is how long the sender waits for ack progress before
	// re-sending unacknowledged frames.
	Retransmit time.Duration
	// AgreeRound bounds one round of membership-evidence exchange per
	// peer: a survivor that produces no evidence within it is suspected.
	AgreeRound time.Duration
	// Barrier bounds the per-iteration control barrier and the coordinated
	// checkpoint/harvest exchanges.
	Barrier time.Duration
}

// WithDefaults fills every zero field, deriving the protocol deadlines
// from the transport ones so the ordering contract above holds for any
// partially-specified budget.
func (d Deadlines) WithDefaults() Deadlines {
	if d.PeerDead <= 0 {
		d.PeerDead = 10 * time.Second
	}
	if d.Dial <= 0 {
		d.Dial = 15 * time.Second
	}
	if d.Heartbeat <= 0 {
		d.Heartbeat = d.PeerDead / 20
		if d.Heartbeat > 500*time.Millisecond {
			d.Heartbeat = 500 * time.Millisecond
		}
		if d.Heartbeat < time.Millisecond {
			d.Heartbeat = time.Millisecond
		}
	}
	if d.Retransmit <= 0 {
		d.Retransmit = d.PeerDead / 40
		if d.Retransmit > 250*time.Millisecond {
			d.Retransmit = 250 * time.Millisecond
		}
		if d.Retransmit < time.Millisecond {
			d.Retransmit = time.Millisecond
		}
	}
	if d.AgreeRound <= 0 {
		d.AgreeRound = d.PeerDead + 4*d.Retransmit
	}
	if d.Barrier <= 0 {
		d.Barrier = 2 * d.AgreeRound
	}
	return d
}
