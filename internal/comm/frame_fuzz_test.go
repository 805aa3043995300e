package comm

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// Frame decoding faces the raw network: any byte sequence — truncated
// headers, bogus lengths, corrupted payloads — must come back as an error,
// never a panic and never an allocation sized by unvalidated input.

func FuzzParseFrameHeader(f *testing.F) {
	f.Add(encodeFrame(1, uint32(KindWeight), 0, 3, 4, 9, CodecF32, []float32{1, 2})[:frameHeaderLen])
	f.Add(encodeCtlFrame(0, ctlAck, 0, 17)[:frameHeaderLen])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, frameHeaderLen))
	f.Add(bytes.Repeat([]byte{0x00}, frameHeaderLen-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseFrameHeader(data, 8, 1<<16)
		if err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("non-corruption error from parser: %v", err)
			}
			return
		}
		if h.n < 0 || h.n > 1<<16 {
			t.Fatalf("accepted implausible payload length %d", h.n)
		}
		if h.src < 0 || h.src >= 8 {
			t.Fatalf("accepted out-of-range source %d", h.src)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	good := encodeFrame(2, uint32(KindGrad), 7, -1, 7, 42, CodecF32, []float32{1.5, -2.5, 0})
	f.Add(good)
	f.Add(good[:len(good)-3]) // truncated payload
	f.Add(good[:frameHeaderLen-5])
	flipped := append([]byte(nil), good...)
	flipped[frameHeaderLen] ^= 0x10 // payload corruption
	f.Add(flipped)
	badLen := append([]byte(nil), good...)
	badLen[36] = 0xFF // huge element count
	badLen[42] = 0xFF
	f.Add(badLen)
	f.Add(append(append([]byte(nil), good...), good...)) // two frames back to back
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bytes.NewReader(data), size: 8, maxElems: 1 << 12}
		for {
			h, payload, _, err := fr.next()
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				var ce *CorruptionError
				if !errors.As(err, &ce) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(payload) != h.n {
				t.Fatalf("payload length %d != header %d", len(payload), h.n)
			}
			Release(payload)
		}
	})
}

// A frame that round-trips through the codec must decode to exactly what
// was encoded.
func TestFrameRoundTrip(t *testing.T) {
	payload := []float32{0, -1.25, 3e9, 1e-30}
	wire := encodeFrame(3, uint32(KindAct), 5, -9, 1<<40, 77, CodecF32, payload)
	h, got, synced, err := (&frameReader{r: bytes.NewReader(wire), size: 4}).next()
	if err != nil || !synced {
		t.Fatalf("decode: %v (synced=%v)", err, synced)
	}
	if h.src != 3 || h.kind != uint32(KindAct) || h.epoch != 5 || h.a != -9 || h.b != 1<<40 || h.seq != 77 {
		t.Fatalf("header mismatch: %+v", h)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], payload[i])
		}
	}
	Release(got)
}

// Corrupting any single payload byte must be caught by the CRC, with the
// stream still frame-aligned (synced) so the connection survives.
func TestFramePayloadCorruptionDetected(t *testing.T) {
	wire := encodeFrame(1, uint32(KindWeight), 0, 0, 0, 5, CodecF32, []float32{1, 2, 3})
	for off := frameHeaderLen; off < len(wire); off++ {
		bad := append([]byte(nil), wire...)
		bad[off] ^= 0x01
		_, _, synced, err := (&frameReader{r: bytes.NewReader(bad), size: 4}).next()
		if err == nil {
			t.Fatalf("corruption at byte %d undetected", off)
		}
		if !synced {
			t.Fatalf("corruption at byte %d lost frame alignment", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption at byte %d: wrong error class %v", off, err)
		}
	}
}
