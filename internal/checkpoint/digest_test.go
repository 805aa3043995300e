package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weipipe/internal/model"
)

func crc32IEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func digestSnapshot() *Snapshot {
	cfg := model.Config{Vocab: 13, Hidden: 8, Layers: 1, Heads: 2, FFNDim: 16, MaxSeq: 8, Seed: 3}
	s := &Snapshot{
		Config:  cfg,
		Weights: make([]float32, 64),
		Sections: map[string][]float32{
			"adam.m": make([]float32, 64),
			"adam.v": make([]float32, 64),
		},
		Step: 7,
	}
	for i := range s.Weights {
		s.Weights[i] = float32(i)*0.25 - 3
		s.Sections["adam.m"][i] = float32(i) * 1e-3
		s.Sections["adam.v"][i] = float32(i) * 1e-6
	}
	return s
}

func TestDigestRoundTrip(t *testing.T) {
	s := digestSnapshot()
	b, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	// The digest section is internal: stripped on read, never surfaced.
	if _, ok := got.Sections[DigestSection]; ok {
		t.Fatal("digest section leaked into the snapshot")
	}
	if len(got.Sections) != len(s.Sections) {
		t.Fatalf("section count %d, want %d", len(got.Sections), len(s.Sections))
	}
}

// TestDigestLocalizesCorruption flips one float of one section in the
// serialized bytes, patches the global file CRC so only the per-section
// digest can catch it (the in-memory-corruption scenario: a flip before
// Save produces a file whose global CRC is honest about corrupt data), and
// asserts the error names the corrupted section.
func TestDigestLocalizesCorruption(t *testing.T) {
	s := digestSnapshot()
	base, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []string{"weights", "adam.m", "adam.v"} {
		b := append([]byte(nil), base...)
		// Find the section's data by locating its name marker, then skip
		// name + elem count.
		idx := bytes.Index(b, append([]byte(sec), 64, 0, 0, 0, 0, 0, 0, 0))
		if sec == "weights" {
			idx = bytes.Index(b, append([]byte(sec), 64, 0, 0, 0, 0, 0, 0, 0))
		}
		if idx < 0 {
			t.Fatalf("section %q not found in serialized form", sec)
		}
		off := idx + len(sec) + 8 + 12 // third element of the section
		b[off] ^= 0x40
		// Re-stamp the global CRC over the corrupted payload.
		payload := b[:len(b)-4]
		binary.LittleEndian.PutUint32(b[len(b)-4:], crcOf(payload))
		_, err := Unmarshal(b)
		if err == nil {
			t.Fatalf("corrupted %q accepted", sec)
		}
		if !strings.Contains(err.Error(), sec) || !strings.Contains(err.Error(), "digest") {
			t.Fatalf("corrupted %q: error does not localize: %v", sec, err)
		}
	}
}

// crcOf mirrors the file format's trailing checksum.
func crcOf(b []byte) uint32 {
	return crc32IEEE(b)
}

func TestDigestBackCompat(t *testing.T) {
	// A pre-digest file: serialize, then strip the digest section and
	// rewrite the section count and CRC. Read must accept it.
	s := digestSnapshot()
	b, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(b, []byte(DigestSection))
	if idx < 0 {
		t.Fatal("digest section missing from fresh file")
	}
	nameLenOff := idx - 8
	stripped := append([]byte(nil), b[:nameLenOff]...)
	// Walk over the digest section: name + count + data, then keep any
	// remaining bytes before the CRC (there are none; digest is last).
	dataElems := int(binary.LittleEndian.Uint64(b[idx+len(DigestSection) : idx+len(DigestSection)+8]))
	end := idx + len(DigestSection) + 8 + 4*dataElems
	stripped = append(stripped, b[end:len(b)-4]...)
	// Patch the section count (first int64 after magic + 9 config fields).
	cntOff := 4 + 9*8
	cnt := binary.LittleEndian.Uint64(stripped[cntOff:])
	binary.LittleEndian.PutUint64(stripped[cntOff:], cnt-1)
	full := append(stripped, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(full[len(full)-4:], crcOf(full[:len(full)-4]))

	got, err := Unmarshal(full)
	if err != nil {
		t.Fatalf("pre-digest file rejected: %v", err)
	}
	if got.Step != s.Step || len(got.Weights) != len(s.Weights) {
		t.Fatal("pre-digest file read incorrectly")
	}
}

func TestDigestResaveStable(t *testing.T) {
	// Load → Save must not accumulate digest sections.
	s := digestSnapshot()
	b1, _ := Marshal(s)
	s2, err := Unmarshal(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := Marshal(s2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("marshal→unmarshal→marshal is not a fixed point")
	}
}

func TestVerifyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	s := digestSnapshot()
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	secs, digested, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !digested {
		t.Fatal("fresh file reported digest-less")
	}
	want := []string{"weights", "adam.m", "adam.v"}
	if len(secs) != len(want) {
		t.Fatalf("sections %v", secs)
	}

	// Corrupt one byte on disk → Verify must fail (global CRC catches it).
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 0x10
	bad := filepath.Join(dir, "bad.ckpt")
	os.WriteFile(bad, raw, 0o644)
	if _, _, err := Verify(bad); err == nil {
		t.Fatal("corrupt file verified")
	}
}

func TestSectionCRCMatchesBytes(t *testing.T) {
	data := []float32{0, 1, -2.5, float32(math.Inf(1)), 3e-9}
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	if sectionCRC(data) != crc32IEEE(raw) {
		t.Fatal("sectionCRC disagrees with byte-stream CRC")
	}
}

// The file format is the sections' own memory written as it lies; it must
// be byte-for-byte what the per-element encoder of earlier commits wrote
// (this SHA was taken from that encoder), so old checkpoints keep loading
// and verifying and digests never move.
func TestMarshalBytesUnchanged(t *testing.T) {
	b, err := Marshal(digestSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	const want = "92e79dd410193f640af0b95f9972dd186f57f121aa2e9781f519547724af9a7e"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != 999 || got != want {
		t.Fatalf("checkpoint image changed: %d bytes, sha256 %s", len(b), got)
	}
	s, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range digestSnapshot().Weights {
		if s.Weights[i] != v {
			t.Fatalf("weights[%d] = %v, want %v", i, s.Weights[i], v)
		}
	}
}
