// Package model assembles Llama-style transformer models from the layers in
// internal/nn and provides the partitioning helpers the parallel runtimes
// share: contiguous stage ranges for activation-passing pipelines and flat
// weight/gradient chunks for the weight-passing WeiPipe ring.
package model

import (
	"fmt"

	"weipipe/internal/nn"
	"weipipe/internal/tensor"
)

// Config describes a model. Hidden must be divisible by Heads; FFNDim
// defaults to the Llama sizing ≈8·Hidden/3 so that a block carries ≈12H²
// parameters (4H² attention + 8H² FFN), the volume the paper's analysis is
// built on.
type Config struct {
	Vocab  int
	Hidden int
	Layers int
	Heads  int
	FFNDim int // 0 → 8*Hidden/3 rounded up to a multiple of 4
	MaxSeq int
	Seed   uint64
}

// WithDefaults fills derived fields and validates the configuration.
func (c Config) WithDefaults() Config {
	if c.FFNDim == 0 {
		f := (8*c.Hidden + 2) / 3
		c.FFNDim = (f + 3) / 4 * 4
	}
	c.mustValidate()
	return c
}

func (c Config) mustValidate() {
	switch {
	case c.Vocab <= 1:
		panic("model: Vocab must be > 1")
	case c.Hidden <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.MaxSeq <= 0:
		panic("model: non-positive dimension")
	case c.Hidden%c.Heads != 0:
		panic(fmt.Sprintf("model: Hidden %d not divisible by Heads %d", c.Hidden, c.Heads))
	case (c.Hidden/c.Heads)%2 != 0:
		panic("model: head dim must be even for RoPE")
	}
}

// NumModules returns the module count: embedding + Layers blocks + head.
func (c Config) NumModules() int { return c.Layers + 2 }

// Model is a built transformer: Modules[0] is the embedding, Modules[1..L]
// the transformer blocks, Modules[L+1] the output head.
type Model struct {
	Cfg     Config
	Modules []nn.Module
	Embed   *nn.Embedding
	Blocks  []*nn.Block
	Head    *nn.OutputHead
}

// Build constructs a model. The same (Config, Seed) always produces
// bit-identical initial weights, which is how every rank of a distributed
// run starts from the same model without broadcasting it.
func Build(cfg Config) *Model {
	cfg = cfg.WithDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	rope := nn.NewRopeTable(cfg.MaxSeq, cfg.Hidden/cfg.Heads)

	m := &Model{Cfg: cfg}
	m.Embed = nn.NewEmbedding("embed", cfg.Vocab, cfg.Hidden, rng.Split())
	m.Modules = append(m.Modules, m.Embed)
	for i := 0; i < cfg.Layers; i++ {
		b := nn.NewBlock(fmt.Sprintf("block%d", i), cfg.Hidden, cfg.Heads, cfg.FFNDim, rope, rng.Split())
		m.Blocks = append(m.Blocks, b)
		m.Modules = append(m.Modules, b)
	}
	m.Head = nn.NewOutputHead("head", cfg.Hidden, cfg.Vocab, rng.Split())
	m.Modules = append(m.Modules, m.Head)
	return m
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, mod := range m.Modules {
		n += mod.Params().Size()
	}
	return n
}

// ModuleParamSize returns the flat size of module i's parameters.
func (m *Model) ModuleParamSize(i int) int { return m.Modules[i].Params().Size() }

// ChunkSize returns the flat size of modules [lo, hi).
func (m *Model) ChunkSize(lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		n += m.Modules[i].Params().Size()
	}
	return n
}

// FlattenChunk copies the weights of modules [lo, hi) into dst in wire
// order. dst must have length ChunkSize(lo, hi).
func (m *Model) FlattenChunk(lo, hi int, dst []float32) {
	off := 0
	for i := lo; i < hi; i++ {
		p := m.Modules[i].Params()
		p.FlattenInto(dst[off : off+p.Size()])
		off += p.Size()
	}
	if off != len(dst) {
		panic("model: FlattenChunk length mismatch")
	}
}

// SetChunk overwrites the weights of modules [lo, hi) from src in wire order.
func (m *Model) SetChunk(lo, hi int, src []float32) {
	off := 0
	for i := lo; i < hi; i++ {
		p := m.Modules[i].Params()
		p.SetFlat(src[off : off+p.Size()])
		off += p.Size()
	}
	if off != len(src) {
		panic("model: SetChunk length mismatch")
	}
}

// BindChunk makes modules [lo, hi) views of flat, in wire order, without
// copying (nn.ParamSet.Bind): the zero-copy SetChunk. flat must have length
// ChunkSize(lo, hi) and stay untouched by anyone else until UnbindChunk.
func (m *Model) BindChunk(lo, hi int, flat []float32) {
	if len(flat) != m.ChunkSize(lo, hi) {
		panic("model: BindChunk length mismatch")
	}
	off := 0
	for i := lo; i < hi; i++ {
		p := m.Modules[i].Params()
		p.Bind(flat[off : off+p.Size()])
		off += p.Size()
	}
}

// UnbindChunk returns modules [lo, hi) to their own storage.
func (m *Model) UnbindChunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		m.Modules[i].Params().Unbind()
	}
}

// Partition splits the module list into p contiguous ranges, balancing by
// parameter count (a greedy even-cost split that keeps ranges contiguous).
// Every range is non-empty; p must not exceed the module count.
func (m *Model) Partition(p int) [][2]int {
	n := len(m.Modules)
	if p <= 0 || p > n {
		panic(fmt.Sprintf("model: cannot partition %d modules into %d parts", n, p))
	}
	sizes := make([]int, n)
	total := 0
	for i := range sizes {
		sizes[i] = m.Modules[i].Params().Size()
		total += sizes[i]
	}
	bounds := make([][2]int, 0, p)
	lo := 0
	remaining := total
	for r := 0; r < p; r++ {
		// leave at least one module for each remaining range
		maxHi := n - (p - r - 1)
		target := remaining / (p - r)
		hi := lo + 1
		acc := sizes[lo]
		for hi < maxHi && acc+sizes[hi]/2 <= target {
			acc += sizes[hi]
			hi++
		}
		bounds = append(bounds, [2]int{lo, hi})
		remaining -= acc
		lo = hi
	}
	if bounds[p-1][1] != n {
		bounds[p-1][1] = n
	}
	return bounds
}

// PartitionLayersEven ignores parameter sizes and splits the Layers blocks
// evenly across p ranges, attaching the embedding to the first range and the
// head to the last — the paper's "distribute layers evenly" layout. Layers
// must be divisible by p.
func (m *Model) PartitionLayersEven(p int) [][2]int {
	if m.Cfg.Layers%p != 0 {
		panic(fmt.Sprintf("model: %d layers not divisible by %d workers", m.Cfg.Layers, p))
	}
	per := m.Cfg.Layers / p
	bounds := make([][2]int, p)
	for r := 0; r < p; r++ {
		lo := 1 + r*per
		hi := 1 + (r+1)*per
		if r == 0 {
			lo = 0
		}
		if r == p-1 {
			hi = len(m.Modules)
		}
		bounds[r] = [2]int{lo, hi}
	}
	return bounds
}
