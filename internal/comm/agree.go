package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
)

// Membership agreement: when a rank dies, the survivors must converge on
// the same picture of who is gone before the ring can be rebuilt. Failure
// evidence is decentralised — each survivor observes the death through its
// own links (a *PeerDeadError naming the peer, or the dead set
// Transport.BeginRecovery reports) — so AgreeOverTransport gets the
// observations across ranks over the same lossy, retransmitting links the
// failure happened on.
// Both fabrics honour one failure contract (a closed endpoint is a dead
// rank, BeginRecovery reopens the survivors), so the protocol below is
// the only agreement there is, in process and across processes.
//
// The protocol is synchronous-round evidence flooding. Every participant
// runs exactly oldSize rounds; in round r it broadcasts its current
// suspected-dead set to every peer it does not suspect, then collects the
// round-r evidence of every such peer, folding what it hears into its own
// set. A peer that produces nothing within the round deadline — or whose
// link the failure detector has condemned — joins the suspected set.
// Fixed round count keeps participants aligned: nobody stops early and
// strands a peer waiting for a round that will never be sent. With crash
// and partition faults only, oldSize rounds give every chain of evidence
// time to reach every survivor, so the survivors of one partition side
// converge on the same dead set; the harvest layer above additionally
// cross-checks a hash of the agreed set and aborts to checkpoint restart
// on any residual divergence — agreement failures are safe, never silent.
//
// Two guards make the outcome safe under partition:
//
//   - Quorum: a result whose survivor set is not a strict majority of the
//     old world returns ErrNoQuorum. Of two segments of a partitioned
//     ring, at most one can hold a majority, so at most one continues —
//     an exact half/half split aborts both (checkpoint restart), which is
//     safe. Epoch fencing at the transport then keeps the losing
//     segment's frames out of the winner's rebuilt mesh.
//   - Eviction: evidence naming the local rank means some survivor's
//     detector condemned *us* and the majority may repair around us; the
//     local rank gets ErrEvicted and must abort to standby.

// DeadPeer extracts the rank a failure implicates, if the error names one:
// a PeerDeadError identifies the remote peer. Errors that do not name a
// peer (ErrClosed, ErrTimeout, collateral damage of tearing the cluster
// down) return ok=false.
func DeadPeer(err error) (rank int, ok bool) {
	var pd *PeerDeadError
	if errors.As(err, &pd) {
		return pd.Rank, true
	}
	return 0, false
}

// Membership is an agreed-upon view of a cluster after failures: the old
// world size and the sorted set of dead old-world ranks.
type Membership struct {
	OldSize int
	Dead    []int // sorted, deduplicated old-world ranks
}

// Survivors lists the live old-world ranks in ascending order.
func (m Membership) Survivors() []int {
	out := make([]int, 0, m.OldSize-len(m.Dead))
	for r := 0; r < m.OldSize; r++ {
		if !m.IsDead(r) {
			out = append(out, r)
		}
	}
	return out
}

// IsDead reports whether old-world rank r is in the dead set.
func (m Membership) IsDead(r int) bool {
	_, found := slices.BinarySearch(m.Dead, r)
	return found
}

// Evidence is one rank's suspected-dead set at one round of the exchange.
type Evidence struct {
	// Epoch is the cluster incarnation the evidence belongs to.
	Epoch uint32
	// OldSize is the world size the failure hit.
	OldSize int
	// Round is the flooding round (0-based).
	Round int
	// From is the reporting rank.
	From int
	// Dead is the reporter's suspected-dead set: sorted, deduplicated,
	// every entry in [0, OldSize).
	Dead []int
}

// Evidence rides a KindCtl payload as control words (IntWord):
//
//	epoch | oldSize | round | from | nDead | dead × nDead (strictly increasing)
const (
	evidenceFixed = 5

	// maxEvidenceWorld bounds the world size the codec accepts; it exists
	// to keep a fuzzer (or a corrupted word) from driving allocations, not
	// as a deployment limit.
	maxEvidenceWorld = 1 << 14
)

// EncodeEvidence lays ev out as control words. It panics on structurally
// invalid input (the encoder is always fed locally-built values).
func EncodeEvidence(ev Evidence) []float32 {
	if ev.OldSize <= 0 || ev.OldSize > maxEvidenceWorld {
		panic(fmt.Sprintf("comm: evidence world size %d out of range", ev.OldSize))
	}
	out := make([]float32, 0, evidenceFixed+len(ev.Dead))
	out = append(out, IntWord(int(ev.Epoch)), IntWord(ev.OldSize), IntWord(ev.Round),
		IntWord(ev.From), IntWord(len(ev.Dead)))
	for _, r := range ev.Dead {
		out = append(out, IntWord(r))
	}
	return out
}

// DecodeEvidence parses and validates an evidence payload. Every failure
// is an error — the decoder never panics and never trusts a count word.
func DecodeEvidence(p []float32) (Evidence, error) {
	if len(p) < evidenceFixed {
		return Evidence{}, fmt.Errorf("comm: evidence truncated (%d words)", len(p))
	}
	ev := Evidence{
		Epoch:   uint32(WordInt(p[0])),
		OldSize: WordInt(p[1]),
		Round:   WordInt(p[2]),
		From:    WordInt(p[3]),
	}
	n := WordInt(p[4])
	if ev.OldSize <= 0 || ev.OldSize > maxEvidenceWorld {
		return Evidence{}, fmt.Errorf("comm: evidence world size %d out of range", ev.OldSize)
	}
	if ev.From < 0 || ev.From >= ev.OldSize {
		return Evidence{}, fmt.Errorf("comm: evidence from-rank %d out of world %d", ev.From, ev.OldSize)
	}
	if n < 0 || n > ev.OldSize {
		return Evidence{}, fmt.Errorf("comm: evidence dead count %d out of world %d", n, ev.OldSize)
	}
	if len(p) != evidenceFixed+n {
		return Evidence{}, fmt.Errorf("comm: evidence length %d != %d", len(p), evidenceFixed+n)
	}
	for i, w := range p[evidenceFixed:] {
		r := WordInt(w)
		if r < 0 || r >= ev.OldSize {
			return Evidence{}, fmt.Errorf("comm: evidence dead rank %d out of world %d", r, ev.OldSize)
		}
		if i > 0 && r <= ev.Dead[i-1] {
			return Evidence{}, fmt.Errorf("comm: evidence dead set not strictly increasing at %d", r)
		}
		ev.Dead = append(ev.Dead, r)
	}
	return ev, nil
}

// Control values ride KindCtl payloads as words: an int as the bits of its
// int32 (IntWord, WordInt), never as a float32 value, which rounds past
// 2^24; an f64 as two such words, its low and high halves. The f32 wire
// keeps every bit pattern, NaN ones included, and control payloads are
// never bf16-narrowed, so a word arrives exactly as it was sent.

// IntWord bit-aliases v's low 32 bits into a control word.
func IntWord(v int) float32 { return math.Float32frombits(uint32(int32(v))) }

// WordInt reads back the int32 a control word carries.
func WordInt(w float32) int { return int(int32(math.Float32bits(w))) }

// PackBytes bit-casts a byte string into control words so it can ride any
// Transport: word 0 carries the byte length, each following word carries 4
// bytes.
func PackBytes(b []byte) []float32 {
	out := make([]float32, 1+(len(b)+3)/4)
	out[0] = IntWord(len(b))
	var word [4]byte
	for i := 1; i < len(out); i++ {
		off := (i - 1) * 4
		word = [4]byte{}
		copy(word[:], b[off:])
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(word[:]))
	}
	return out
}

// UnpackBytes reverses PackBytes, validating the length word.
func UnpackBytes(p []float32) ([]byte, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("comm: packed bytes: empty payload")
	}
	n := WordInt(p[0])
	if n < 0 || (n+3)/4 != len(p)-1 {
		return nil, fmt.Errorf("comm: packed bytes: length %d inconsistent with %d words", n, len(p)-1)
	}
	out := make([]byte, (len(p)-1)*4)
	for i := 1; i < len(p); i++ {
		binary.LittleEndian.PutUint32(out[(i-1)*4:], math.Float32bits(p[i]))
	}
	return out[:n], nil
}

// agreeTagBase reserves a KindCtl tag namespace for the agreement
// protocol, far above any training-loop control tag; B is the round. A
// transport carries one agreement: a failure ends its incarnation,
// whatever the outcome.
const agreeTagBase = 1 << 30

// AgreeConfig parameterises AgreeOverTransport.
type AgreeConfig struct {
	// Epoch is the current cluster incarnation; evidence from any other
	// epoch aborts the exchange.
	Epoch uint32
	// Deadlines supplies AgreeRound, the per-peer round deadline.
	Deadlines Deadlines
}

// AgreeOverTransport converges the cluster on a membership view after a
// failure, by evidence flooding over t (see the file comment for the
// protocol and its partition guards). initial seeds the local suspected
// set — typically the dead ranks named by *PeerDeadError evidence and
// BeginRecovery. The caller must have called BeginRecovery.
//
// The returned Membership is this rank's final view. The error is nil
// only when the view is actionable: quorum held and the local rank is not
// in the agreed dead set. ErrNoQuorum and ErrEvicted both mean "stop
// training, abort to standby/checkpoint-restart"; any other error means
// the exchange itself failed (local close, stale evidence) and the caller
// must fall back to checkpoint restart.
func AgreeOverTransport(t Transport, initial []int, cfg AgreeConfig) (Membership, error) {
	self, oldSize := t.Rank(), t.Size()
	dl := cfg.Deadlines.WithDefaults()
	suspect := make(map[int]bool, oldSize)
	for _, r := range initial {
		if r >= 0 && r < oldSize && r != self {
			suspect[r] = true
		}
	}
	evicted := false

	for round := 0; round < oldSize; round++ {
		payload := EncodeEvidence(Evidence{Epoch: cfg.Epoch, OldSize: oldSize, Round: round, From: self,
			Dead: slices.Sorted(maps.Keys(suspect))})
		tag := Tag{Kind: KindCtl, A: agreeTagBase, B: round}

		for peer := 0; peer < oldSize; peer++ {
			if peer == self || suspect[peer] {
				continue
			}
			if err := t.Send(peer, tag, payload); err != nil {
				if r, ok := DeadPeer(err); ok {
					suspect[r] = true
					t.BeginRecovery()
					continue
				}
				return Membership{}, fmt.Errorf("comm: agreement round %d send to %d: %w", round, peer, err)
			}
		}

		for peer := 0; peer < oldSize; peer++ {
			if peer == self || suspect[peer] {
				continue
			}
			// A third peer's death closes the whole mailbox mid-wait; fold
			// the evidence in, reopen, and retry this peer. The retry
			// budget is bounded by the ranks that can still die.
			var pl []float32
			var err error
			for tries := 0; tries <= oldSize; tries++ {
				pl, err = t.RecvTimeout(peer, tag, dl.AgreeRound)
				if err == nil {
					break
				}
				if r, ok := DeadPeer(err); ok {
					suspect[r] = true
					t.BeginRecovery()
					if r == peer {
						break
					}
					continue
				}
				break
			}
			switch {
			case err == nil:
				got, derr := DecodeEvidence(pl)
				Release(pl)
				if derr != nil {
					return Membership{}, fmt.Errorf("comm: agreement evidence from %d: %w", peer, derr)
				}
				if got.Epoch != cfg.Epoch || got.OldSize != oldSize || got.Round != round || got.From != peer {
					return Membership{}, fmt.Errorf(
						"comm: agreement evidence mismatch from %d: epoch %d/%d world %d/%d round %d/%d from %d",
						peer, got.Epoch, cfg.Epoch, got.OldSize, oldSize, got.Round, round, got.From)
				}
				for _, r := range got.Dead {
					if r == self {
						evicted = true // someone's detector condemned us
						continue
					}
					suspect[r] = true
				}
			case suspect[peer]:
				// condemned by the detector mid-round; evidence folded above
			case errors.Is(err, ErrTimeout):
				// No evidence within the round deadline: with AgreeRound >
				// PeerDead + retransmit slack, a live peer on a healthy link
				// cannot miss it — suspect the peer.
				suspect[peer] = true
			default:
				// Local close or another non-evidence failure: the exchange
				// itself is broken; abort to checkpoint restart.
				return Membership{}, fmt.Errorf("comm: agreement round %d recv from %d: %w", round, peer, err)
			}
		}
	}

	m := Membership{OldSize: oldSize, Dead: slices.Sorted(maps.Keys(suspect))}
	survivors := oldSize - len(m.Dead)
	if evicted {
		return m, fmt.Errorf("comm: rank %d named dead by surviving peers: %w", self, ErrEvicted)
	}
	if 2*survivors <= oldSize {
		return m, fmt.Errorf("comm: %d of %d survive: %w", survivors, oldSize, ErrNoQuorum)
	}
	return m, nil
}
