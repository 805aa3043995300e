package nn

import (
	"fmt"

	"weipipe/internal/tensor"
)

// Cache carries a module's forward intermediates to its backward passes. One
// Cache instance corresponds to one (module, microbatch) pair; pipeline
// runtimes keep a cache per in-flight microbatch and drop it after the W
// pass.
//
// With an arena attached, every tensor a module draws lives until its last
// reader is done with it, not until the microbatch ends. The ownership rule:
//
//   - A module frees only what it allocated itself and nobody downstream
//     holds: scratch its own pass consumed (attention's dctx, the FFN's dhid
//     and, in F, its hid, which B rebuilds for W; the head's logits) and,
//     once its B pass has run, the stashes only B reads (attention's q, k, v
//     and lse, the FFN's u and up, an RMSNorm's inv, the head's probs and
//     targets).
//   - A tensor a module returns belongs to whoever stashes it. A caller that
//     consumes a returned tensor without stashing it frees it: Block frees
//     attention's and the FFN's outputs after their residual adds and the
//     two norms' B outputs after theirs, an RMSNorm gives back the gradient
//     its B pass is handed (W reads the gain terms B forms from it), and a
//     pipeline stage frees the boundary tensors it has sent. A stashed
//     tensor lives until the W pass has read it and goes back with the
//     arena's Reset.
//   - A norm's input has no reader after the norm's B pass, so Block gives
//     back its own y and its input x, and the head its input, at B
//     (giveBackX) when the arena owns them; a pipeline stage's received
//     payload stays the stage's.
//
// So between its B and W passes a microbatch holds exactly what W reads,
// which is the activation-memory lifetime the paper's memory analysis
// accounts for.
type Cache struct {
	// G and S are the microbatch size and sequence length of the activations
	// flowing through the module.
	G, S int
	// X is the module input, saved by Forward (the only thing kept when
	// recomputation is enabled — see DropAllButX).
	X *tensor.Tensor
	// Arena, when non-nil, supplies every tensor the module allocates during
	// its forward and backward passes and takes back what the module frees.
	// The owner (a pipeline runner) resets it once the microbatch's W pass has
	// consumed the stash; with a nil arena modules fall back to fresh heap
	// tensors and their frees do nothing. Sub-caches inherit it.
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

// release removes the stashed tensor for key and hands it back to the arena:
// its last reader has run, and a later Get is a loud cache miss instead of a
// read of a recycled buffer.
func (c *Cache) release(key string) { free(c, c.Take(key)) }

// giveBackX hands the cache's input X back to the arena (giveBack) and
// forgets it. A composite module calls it on a sub-layer whose B pass was
// the input's last reader.
func (c *Cache) giveBackX() {
	giveBack(c, c.X)
	c.X = nil
}

// Has reports whether key is stashed.
func (c *Cache) Has(key string) bool {
	_, ok := c.stash[key]
	return ok
}

// DropAllButX hands every stashed intermediate of c and of its sub-caches
// back to the arena — the sub-caches' inputs too, which c's own forward made
// — keeping only the input X. Used by recomputation: after the forward pass
// only X survives; Recompute rebuilds the rest before the B pass.
func (c *Cache) DropAllButX() { c.drop(c.X) }

func (c *Cache) drop(keep *tensor.Tensor) {
	for key, t := range c.stash {
		if t != keep {
			free(c, t)
		}
		delete(c.stash, key)
	}
	for _, child := range c.children {
		if child.X != nil && child.X != keep {
			free(child, child.X)
		}
		child.X = nil
		child.drop(keep)
	}
}

// Recompute rebuilds what DropAllButX dropped by running m's forward again
// on the cache's saved input. The output it makes again goes straight back to
// the arena: the first forward's output is still held by whoever stashed it.
func Recompute(m Module, c *Cache) { free(c, m.Forward(c.X, c)) }

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

// free hands t back to the cache's arena (nothing to do on the heap). The
// caller must own t under the Cache ownership rule and be its last reader.
func free(c *Cache, t *tensor.Tensor) {
	if c.Arena != nil {
		c.Arena.Free(t)
	}
}

// giveBack is free for a tensor that may have come from elsewhere: it hands
// t back only if the cache's arena owns it. A pipeline stage's received
// payload (tensor.FromSlice) or a heap tensor stays its owner's.
func giveBack(c *Cache, t *tensor.Tensor) {
	if c.Arena != nil && t != nil && c.Arena.Owns(t) {
		c.Arena.Free(t)
	}
}
