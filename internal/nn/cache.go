package nn

import (
	"fmt"

	"weipipe/internal/tensor"
)

// Cache carries a module's forward intermediates to its backward passes. One
// Cache instance corresponds to one (module, microbatch) pair; pipeline
// runtimes keep a cache per in-flight microbatch and drop it after the W
// pass, which is exactly the activation-memory lifetime the paper's memory
// analysis accounts for.
type Cache struct {
	// G and S are the microbatch size and sequence length of the activations
	// flowing through the module.
	G, S int
	// X is the module input, saved by Forward (the only thing kept when
	// recomputation is enabled — see Block.ForwardCheckpointed).
	X *tensor.Tensor
	// Arena, when non-nil, supplies every tensor the module allocates during
	// its forward and backward passes. The owner (a pipeline runner) resets
	// it once the microbatch's W pass has consumed the stash; with a nil
	// arena modules fall back to fresh heap tensors. Sub-caches inherit it.
	Arena *tensor.Arena

	stash    map[string]*tensor.Tensor
	children map[string]*Cache
}

// NewCache returns a cache for a microbatch of G sequences of length S.
func NewCache(g, s int) *Cache {
	return &Cache{G: g, S: s, stash: make(map[string]*tensor.Tensor)}
}

// Tokens returns the number of token positions (G*S).
func (c *Cache) Tokens() int { return c.G * c.S }

// Put stashes t under key, replacing any previous entry.
func (c *Cache) Put(key string, t *tensor.Tensor) {
	c.stash[key] = t
}

// Get returns the stashed tensor for key, panicking if absent (a missing
// stash is always a schedule bug: backward ran without its forward).
func (c *Cache) Get(key string) *tensor.Tensor {
	t, ok := c.stash[key]
	if !ok {
		panic(fmt.Sprintf("nn: cache miss for %q (backward before forward?)", key))
	}
	return t
}

// Take returns and removes the stashed tensor for key, freeing it for GC.
func (c *Cache) Take(key string) *tensor.Tensor {
	t := c.Get(key)
	delete(c.stash, key)
	return t
}

// Has reports whether key is stashed.
func (c *Cache) Has(key string) bool {
	_, ok := c.stash[key]
	return ok
}

// DropAllButX clears every stashed intermediate and child cache, keeping
// only the input X. Used by recomputation: after the forward pass only X
// survives; backward re-runs Forward to rebuild the rest.
func (c *Cache) DropAllButX() {
	c.stash = make(map[string]*tensor.Tensor)
	c.children = nil
}

// Sub returns the child cache for a named sub-module, creating it on first
// use. Composite modules (Block) give each sub-layer its own namespace.
func (c *Cache) Sub(name string) *Cache {
	if c.children == nil {
		c.children = make(map[string]*Cache)
	}
	child, ok := c.children[name]
	if !ok {
		child = NewCache(c.G, c.S)
		child.Arena = c.Arena
		c.children[name] = child
	}
	return child
}

// alloc returns a scratch tensor from the cache's arena, or a fresh heap
// tensor when no arena is attached. Modules route every intermediate through
// it so steady-state training steps reuse buffers instead of allocating.
// The contents are unspecified (an arena does not clear a recycled buffer):
// every caller hands the tensor to a kernel or loop that writes all of it —
// a store-mode matmul, an elementwise op, a row kernel, a full copy — before
// anything reads it.
func alloc(c *Cache, shape ...int) *tensor.Tensor {
	if c.Arena != nil {
		return c.Arena.Scratch(shape...)
	}
	return tensor.New(shape...)
}
