package model

import (
	"math"
	"slices"
	"testing"

	"weipipe/internal/nn"
	"weipipe/internal/tensor"
)

func tinyCfg() Config {
	return Config{Vocab: 17, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 8, Seed: 1}
}

func TestWithDefaultsFFNDim(t *testing.T) {
	c := Config{Vocab: 10, Hidden: 1024, Layers: 1, Heads: 32, MaxSeq: 16}.WithDefaults()
	// ≈ 8H/3 rounded to a multiple of 4
	if c.FFNDim < 8*1024/3 || c.FFNDim%4 != 0 || c.FFNDim > 8*1024/3+4 {
		t.Fatalf("FFNDim = %d", c.FFNDim)
	}
}

func TestWithDefaultsValidates(t *testing.T) {
	bad := []Config{
		{Vocab: 1, Hidden: 8, Layers: 1, Heads: 2, MaxSeq: 4},
		{Vocab: 10, Hidden: 9, Layers: 1, Heads: 2, MaxSeq: 4}, // H % heads
		{Vocab: 10, Hidden: 6, Layers: 1, Heads: 2, MaxSeq: 4}, // odd head dim
		{Vocab: 10, Hidden: 8, Layers: 0, Heads: 2, MaxSeq: 4},
	}
	for i, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			c.WithDefaults()
		}()
	}
}

func TestBuildStructure(t *testing.T) {
	m := Build(tinyCfg())
	if len(m.Modules) != 6 || len(m.Blocks) != 4 {
		t.Fatalf("modules %d blocks %d", len(m.Modules), len(m.Blocks))
	}
	if _, ok := m.Modules[0].(*nn.Embedding); !ok {
		t.Fatal("module 0 not embedding")
	}
	if _, ok := m.Modules[5].(*nn.OutputHead); !ok {
		t.Fatal("last module not head")
	}
	if m.NumParams() <= 0 {
		t.Fatal("no params")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(tinyCfg())
	b := Build(tinyCfg())
	for i := range a.Modules {
		if a.Modules[i].Params().MaxAbsDiff(b.Modules[i].Params()) != 0 {
			t.Fatalf("module %d differs between identically seeded builds", i)
		}
	}
	cfg2 := tinyCfg()
	cfg2.Seed = 2
	c := Build(cfg2)
	if a.Modules[1].Params().MaxAbsDiff(c.Modules[1].Params()) == 0 {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestChunkFlattenRoundTrip(t *testing.T) {
	m := Build(tinyCfg())
	n := m.ChunkSize(1, 3)
	buf := make([]float32, n)
	m.FlattenChunk(1, 3, buf)
	// perturb and write back
	for i := range buf {
		buf[i] += 1
	}
	m.SetChunk(1, 3, buf)
	buf2 := make([]float32, n)
	m.FlattenChunk(1, 3, buf2)
	for i := range buf {
		if buf[i] != buf2[i] {
			t.Fatalf("chunk round trip failed at %d", i)
		}
	}
	// modules outside the chunk untouched
	if m.ChunkSize(0, 1) != m.Modules[0].Params().Size() {
		t.Fatal("ChunkSize wrong for single module")
	}
}

// BindChunk is SetChunk without the copy: the chunk's modules read the flat
// buffer in FlattenChunk's order, modules outside the range stay put, a
// wrong-length buffer binds nothing, and UnbindChunk brings the modules' own
// weights back.
func TestBindChunkIsZeroCopySetChunk(t *testing.T) {
	m := Build(tinyCfg())
	n := m.ChunkSize(1, 3)
	own := make([]float32, n)
	m.FlattenChunk(1, 3, own)
	outside := m.Modules[3].Params().Flatten()

	chunk := make([]float32, n)
	for i := range chunk {
		chunk[i] = float32(i)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BindChunk accepted a short buffer")
			}
		}()
		m.BindChunk(1, 3, chunk[:n-1])
	}()
	m.BindChunk(1, 3, chunk)
	got := make([]float32, n)
	m.FlattenChunk(1, 3, got)
	for i := range got {
		if got[i] != chunk[i] {
			t.Fatalf("bound chunk reads %v at %d, buffer holds %v", got[i], i, chunk[i])
		}
	}
	chunk[0] = -5 // no copy was taken: the module sees the buffer change
	if first := m.Modules[1].Params(); first.Get(first.Names()[0]).Data[0] != -5 {
		t.Fatal("BindChunk copied the buffer")
	}
	for i, v := range m.Modules[3].Params().Flatten() {
		if v != outside[i] {
			t.Fatalf("module outside the bound range changed at %d", i)
		}
	}
	m.UnbindChunk(1, 3)
	m.FlattenChunk(1, 3, got)
	for i := range got {
		if got[i] != own[i] {
			t.Fatalf("own weights not restored at %d: %v != %v", i, got[i], own[i])
		}
	}
}

func TestPartitionCoversAllModules(t *testing.T) {
	m := Build(tinyCfg())
	for p := 1; p <= 6; p++ {
		b := m.Partition(p)
		if len(b) != p {
			t.Fatalf("p=%d: got %d ranges", p, len(b))
		}
		if b[0][0] != 0 || b[p-1][1] != len(m.Modules) {
			t.Fatalf("p=%d: ranges %v do not span", p, b)
		}
		for i := 0; i < p; i++ {
			if b[i][0] >= b[i][1] {
				t.Fatalf("p=%d: empty range %v", p, b[i])
			}
			if i > 0 && b[i][0] != b[i-1][1] {
				t.Fatalf("p=%d: gap between %v and %v", p, b[i-1], b[i])
			}
		}
	}
}

func TestBlockParamCountMatchesPaperFormula(t *testing.T) {
	// A block should carry ≈12H² params when FFNDim = 8H/3.
	cfg := Config{Vocab: 100, Hidden: 96, Layers: 1, Heads: 4, MaxSeq: 8, Seed: 1}
	m := Build(cfg)
	h := cfg.Hidden
	got := m.Blocks[0].Params().Size()
	want := 12 * h * h // attention 4H² + FFN 3·H·(8H/3) = 8H², plus 2H norms
	slack := 3 * h     // norm gains + FFN rounding
	if got < want || got > want+8*h+slack {
		t.Fatalf("block params = %d, want ≈ %d", got, want)
	}
	_ = tensor.New(1) // keep import
}

// A shell model has Build's layout and none of its storage, and InitChunk
// rebuilds any module range's initial weights bit for bit without building
// the rest: the i-th module's stream is the i-th split whatever is skipped.
func TestShellsAndInitChunkMatchBuild(t *testing.T) {
	full := Build(tinyCfg())
	shells := BuildShells(tinyCfg())
	if shells.NumParams() != full.NumParams() || len(shells.Blocks) != len(full.Blocks) ||
		shells.Embed == nil || shells.Head == nil {
		t.Fatal("shell model's layout differs from Build's")
	}
	for p := 1; p <= len(full.Modules); p++ {
		if got, want := shells.Partition(p), full.Partition(p); !slices.Equal(got, want) {
			t.Fatalf("p=%d: shell partition %v, built %v", p, got, want)
		}
	}
	for i, mod := range shells.Modules {
		for _, name := range mod.Params().Names() {
			if mod.Params().Get(name).Data != nil {
				t.Fatalf("module %d %s has storage", i, name)
			}
		}
	}
	for lo := 0; lo < len(full.Modules); lo++ {
		for hi := lo + 1; hi <= len(full.Modules); hi++ {
			want := make([]float32, full.ChunkSize(lo, hi))
			full.FlattenChunk(lo, hi, want)
			got := make([]float32, len(want))
			shells.InitChunk(lo, hi, got)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("[%d, %d): InitChunk element %d = %v, Build has %v", lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}
