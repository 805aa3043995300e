// Package checkpoint serialises models (and optionally optimizer moments)
// to a compact, versioned, checksummed binary format, so long training
// runs can stop and resume — table stakes for a training system, and the
// piece that lets the distributed runtimes hand a trained model to the
// generation tooling.
//
// Layout (little-endian):
//
//	magic "WPCK" | version u32 | config block | section count u32 |
//	  per section: name len u32, name, elem count u64, f32 data |
//	crc32 of everything above
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"weipipe/internal/model"
	"weipipe/internal/tensor"
)

const (
	magic   = "WPCK"
	version = 1

	// DigestSection is the reserved section name carrying per-section CRC32
	// digests: four byte-valued float32 elements (little-endian CRC bytes)
	// per data section, covering the weights first and then every named
	// section in sorted order. Written by Write, stripped and verified by
	// Read. The global file CRC already rejects wire/disk corruption of the
	// *file*; the per-section digests additionally localise it ("adam.m is
	// corrupt") and — because they are recomputed from the in-memory vectors
	// at save time — catch corruption that happened in memory before the
	// save, which the file CRC would faithfully preserve.
	DigestSection = "digest.crc32"
)

// Snapshot is the serialisable state of a training run.
type Snapshot struct {
	Config model.Config
	// Weights is the full flat parameter vector in model wire order.
	Weights []float32
	// Sections holds named auxiliary vectors (e.g. "adam.m", "adam.v").
	Sections map[string][]float32
	// Step is the optimizer step count at save time.
	Step int64
}

// FromModel captures a model's weights into a snapshot.
func FromModel(m *model.Model) *Snapshot {
	w := make([]float32, m.NumParams())
	m.FlattenChunk(0, len(m.Modules), w)
	return &Snapshot{Config: m.Cfg, Weights: w, Sections: map[string][]float32{}}
}

// ApplyTo writes the snapshot's weights into a model built with the same
// configuration.
func (s *Snapshot) ApplyTo(m *model.Model) error {
	if m.NumParams() != len(s.Weights) {
		return fmt.Errorf("checkpoint: model has %d params, snapshot %d", m.NumParams(), len(s.Weights))
	}
	m.SetChunk(0, len(m.Modules), s.Weights)
	return nil
}

// Restore builds a fresh model from the snapshot's config and loads the
// weights into it.
func (s *Snapshot) Restore() (*model.Model, error) {
	m := model.Build(s.Config)
	if err := s.ApplyTo(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Write serialises the snapshot.
func Write(w io.Writer, s *Snapshot) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	cfg := s.Config
	for _, v := range []int64{version, int64(cfg.Vocab), int64(cfg.Hidden), int64(cfg.Layers),
		int64(cfg.Heads), int64(cfg.FFNDim), int64(cfg.MaxSeq), int64(cfg.Seed), s.Step} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// weights as the unnamed first section, then named sections sorted by
	// insertion-independent ordering (we sort names for determinism), then
	// the per-section digest vector last so a reader can verify each data
	// section against the checksum its writer computed in memory.
	names := sortedNames(s.Sections)
	if err := binary.Write(bw, binary.LittleEndian, int64(2+len(names))); err != nil {
		return err
	}
	if err := writeSection(bw, "weights", s.Weights); err != nil {
		return err
	}
	for _, n := range names {
		if err := writeSection(bw, n, s.Sections[n]); err != nil {
			return err
		}
	}
	if err := writeSection(bw, DigestSection, digestVector(s, names)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// checksum trailer (not itself checksummed)
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// sectionCRC is the CRC32-IEEE of a section's little-endian float32 bit
// patterns — the same bytes writeSection puts on disk, which are the
// section's own memory (tensor.F32LE), so nothing is materialised.
func sectionCRC(data []float32) uint32 {
	return crc32.ChecksumIEEE(tensor.F32LE(data))
}

// digestVector encodes one CRC32 per data section (weights first, then the
// given names in order) as four byte-valued float32 elements each — values
// 0..255 are exact in every float precision, so the digests survive any
// lossy re-encoding a snapshot's payload might legitimately go through.
func digestVector(s *Snapshot, names []string) []float32 {
	out := make([]float32, 0, 4*(1+len(names)))
	appendCRC := func(c uint32) {
		out = append(out, float32(c&0xff), float32(c>>8&0xff), float32(c>>16&0xff), float32(c>>24&0xff))
	}
	appendCRC(sectionCRC(s.Weights))
	for _, n := range names {
		appendCRC(sectionCRC(s.Sections[n]))
	}
	return out
}

// verifyDigests checks every data section against the digest vector read
// from the file. A nil digest (old file) verifies vacuously; a present but
// malformed or mismatched digest is an error naming the bad section.
func verifyDigests(s *Snapshot, digest []float32) error {
	if digest == nil {
		return nil
	}
	names := sortedNames(s.Sections)
	if len(digest) != 4*(1+len(names)) {
		return fmt.Errorf("checkpoint: digest section covers %d entries, want %d", len(digest)/4, 1+len(names))
	}
	decode := func(d []float32) uint32 {
		return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
	}
	if got, want := sectionCRC(s.Weights), decode(digest[:4]); got != want {
		return fmt.Errorf("checkpoint: section %q digest mismatch: want %08x got %08x", "weights", want, got)
	}
	for i, n := range names {
		d := digest[4*(1+i) : 4*(2+i)]
		if got, want := sectionCRC(s.Sections[n]), decode(d); got != want {
			return fmt.Errorf("checkpoint: section %q digest mismatch: want %08x got %08x", n, want, got)
		}
	}
	return nil
}

// sortedNames lists the named data sections in deterministic order. The
// digest section is metadata about the others, not a data section, so it is
// excluded — Write appends it explicitly and Read strips it before handing
// the snapshot back.
func sortedNames(m map[string][]float32) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		if n == DigestSection {
			continue
		}
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ { // insertion sort; tiny n
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

func writeSection(w io.Writer, name string, data []float32) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(name))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(data))); err != nil {
		return err
	}
	_, err := w.Write(tensor.F32LE(data))
	return err
}

// Read deserialises a snapshot, verifying magic, version and checksum.
// All reads are exact-size (no buffered lookahead), so the running checksum
// covers precisely the payload bytes.
func Read(r io.Reader) (*Snapshot, error) {
	s, _, err := readVerify(r)
	return s, err
}

// readVerify is Read plus a report of whether the file carried a
// per-section digest vector (pre-digest files verify by global CRC only).
func readVerify(r io.Reader) (*Snapshot, bool, error) {
	crc := crc32.NewIEEE()
	br := io.TeeReader(r, crc)

	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, false, fmt.Errorf("checkpoint: %w", err)
	}
	if string(head) != magic {
		return nil, false, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	var fields [9]int64
	for i := range fields {
		if err := binary.Read(br, binary.LittleEndian, &fields[i]); err != nil {
			return nil, false, err
		}
	}
	if fields[0] != version {
		return nil, false, fmt.Errorf("checkpoint: unsupported version %d", fields[0])
	}
	s := &Snapshot{
		Config: model.Config{
			Vocab: int(fields[1]), Hidden: int(fields[2]), Layers: int(fields[3]),
			Heads: int(fields[4]), FFNDim: int(fields[5]), MaxSeq: int(fields[6]),
			Seed: uint64(fields[7]),
		},
		Sections: map[string][]float32{},
		Step:     fields[8],
	}
	var nSections int64
	if err := binary.Read(br, binary.LittleEndian, &nSections); err != nil {
		return nil, false, err
	}
	if nSections < 1 || nSections > 1<<16 {
		return nil, false, fmt.Errorf("checkpoint: implausible section count %d", nSections)
	}
	for i := int64(0); i < nSections; i++ {
		name, data, err := readSection(br)
		if err != nil {
			return nil, false, err
		}
		if name == "weights" {
			s.Weights = data
		} else {
			s.Sections[name] = data
		}
	}
	wantSum := crc.Sum32()
	var gotSum uint32
	if err := binary.Read(r, binary.LittleEndian, &gotSum); err != nil {
		return nil, false, fmt.Errorf("checkpoint: missing checksum: %w", err)
	}
	if gotSum != wantSum {
		return nil, false, fmt.Errorf("checkpoint: checksum mismatch (corrupt file)")
	}
	if s.Weights == nil {
		return nil, false, fmt.Errorf("checkpoint: no weights section")
	}
	digest, hasDigest := s.Sections[DigestSection]
	if hasDigest {
		delete(s.Sections, DigestSection)
		if err := verifyDigests(s, digest); err != nil {
			return nil, false, err
		}
	}
	return s, hasDigest, nil
}

// Verify reads and fully checks a checkpoint file — magic, version, global
// CRC and (when present) the per-section digests — without keeping the
// state. It reports the data sections found and whether the file carried
// per-section digests, for scan tooling (weipipe-train -verify-ckpt).
func Verify(path string) (sections []string, digested bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	s, digested, err := readVerify(f)
	if err != nil {
		return nil, digested, err
	}
	return append([]string{"weights"}, sortedNames(s.Sections)...), digested, nil
}

func readSection(r io.Reader) (string, []float32, error) {
	var nameLen int64
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return "", nil, err
	}
	if nameLen < 0 || nameLen > 4096 {
		return "", nil, fmt.Errorf("checkpoint: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", nil, err
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", nil, err
	}
	if n < 0 || n > 1<<34 {
		return "", nil, fmt.Errorf("checkpoint: implausible section size %d", n)
	}
	data := make([]float32, n)
	if _, err := io.ReadFull(r, tensor.F32Bytes(data)); err != nil {
		return "", nil, err
	}
	tensor.F32FromLE(data)
	return string(name), data, nil
}

// Marshal serialises a snapshot to bytes — the wire form used when a
// snapshot travels between processes (seeding a freshly admitted spare
// rank) instead of to disk. The format is identical to the file format,
// checksum trailer included.
func Marshal(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal deserialises a snapshot produced by Marshal (or read from a
// checkpoint file), verifying magic, version and checksum.
func Unmarshal(b []byte) (*Snapshot, error) {
	s, err := Read(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Save writes a snapshot to a file crash-safely: the bytes go to a unique
// temp file in the destination directory, are fsynced, and only then
// atomically renamed over the target (with the directory entry fsynced
// too). A crash or kill at any point leaves either the previous complete
// checkpoint or the new complete checkpoint at path — never a truncated
// hybrid — and the checksum trailer rejects any partial temp file that is
// mistaken for a checkpoint.
func Save(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Write(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself: fsync the directory so the new entry
	// survives a power loss. Some platforms refuse to sync directories;
	// that is not worth failing the checkpoint over.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// SaveRotate is Save with last-k retention: before writing, the existing
// generations shift down (path → path.1 → … → path.k−1, the oldest
// dropped), so the k most recent complete checkpoints survive on disk.
// keep ≤ 1 retains only the latest, exactly like Save.
func SaveRotate(path string, s *Snapshot, keep int) error {
	if keep > 1 {
		os.Remove(fmt.Sprintf("%s.%d", path, keep-1))
		for i := keep - 2; i >= 1; i-- {
			// Rename failures here mean the generation doesn't exist yet;
			// rotation is best-effort by design.
			_ = os.Rename(fmt.Sprintf("%s.%d", path, i), fmt.Sprintf("%s.%d", path, i+1))
		}
		_ = os.Rename(path, path+".1")
	}
	return Save(path, s)
}

// Load reads a snapshot from a file.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
