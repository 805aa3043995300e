package comm

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// wordsOf reads data as little-endian control words, dropping a trailing
// partial word; bytesOf is its inverse.
func wordsOf(data []byte) []float32 {
	p := make([]float32, len(data)/4)
	for i := range p {
		p[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return p
}

func bytesOf(p []float32) []byte {
	out := make([]byte, 4*len(p))
	for i, w := range p {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(w))
	}
	return out
}

// FuzzMembershipEvidence hammers the membership-evidence word decoder with
// arbitrary words, and the byte-packing layer checkpoint bytes ride with
// arbitrary bytes. The decoder must never panic, and any input it accepts
// must re-encode to the identical words (no two wire forms for one
// evidence value — that would let a malformed frame masquerade as a
// different rank's testimony).
func FuzzMembershipEvidence(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(bytesOf(EncodeEvidence(Evidence{OldSize: 1})))
	f.Add(bytesOf(EncodeEvidence(Evidence{Epoch: 9, OldSize: 4, Round: 3, From: 2, Dead: []int{0, 3}})))
	f.Add(bytesOf(EncodeEvidence(Evidence{Epoch: 0x7FC00001, OldSize: 300, Round: 1, From: 299, Dead: []int{5}})))
	trunc := bytesOf(EncodeEvidence(Evidence{OldSize: 4, From: 1, Dead: []int{0, 2, 3}}))
	f.Add(trunc[:len(trunc)-3])
	f.Add(append(append([]byte{}, trunc...), 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		words := wordsOf(data)
		ev, err := DecodeEvidence(words)
		if err == nil {
			if re := EncodeEvidence(ev); !reflect.DeepEqual(bytesOf(re), bytesOf(words)) {
				t.Fatalf("accepted input is not canonical: %x -> %+v -> %x", bytesOf(words), ev, bytesOf(re))
			}
			if ev.From >= ev.OldSize || ev.From < 0 {
				t.Fatalf("accepted out-of-range From: %+v", ev)
			}
			for i, d := range ev.Dead {
				if d < 0 || d >= ev.OldSize || (i > 0 && d <= ev.Dead[i-1]) {
					t.Fatalf("accepted invalid dead set: %+v", ev)
				}
			}
		}

		// The bytes through the f32 packing layer: pack/unpack is the
		// identity on byte strings, and unpacking arbitrary payloads never
		// panics either.
		p := PackBytes(data)
		back, err := UnpackBytes(p)
		if err != nil {
			t.Fatalf("UnpackBytes(PackBytes(%d bytes)): %v", len(data), err)
		}
		if len(back) != len(data) || (len(data) > 0 && !reflect.DeepEqual(back, data)) {
			t.Fatalf("pack roundtrip mangled %d bytes", len(data))
		}
		UnpackBytes(p[:len(p)-1]) // truncated payload must not panic
		UnpackBytes(words)        // arbitrary words must not panic
	})
}
