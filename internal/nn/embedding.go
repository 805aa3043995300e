package nn

import "weipipe/internal/tensor"

// Embedding maps token ids to hidden vectors via a learned table W of shape
// [V, H]. It sits at the head of the module list; pipeline runtimes feed it
// tokens rather than activations, so it implements Module with a tokens
// side-channel in the cache ("tokens" stash set by ForwardTokens).
type Embedding struct {
	name   string
	W      *tensor.Tensor // [V, H]
	params *ParamSet
}

// NewEmbedding builds an embedding table for vocab size v, hidden size h (a
// shell for a nil rng; see newParam).
func NewEmbedding(name string, v, h int, rng *tensor.RNG) *Embedding {
	e := &Embedding{name: name, W: newParam(rng, v, h)}
	tensor.FillNormal(e.W, rng, 0.02)
	p := NewParamSet()
	p.Add("w", e.W)
	e.params = p
	return e
}

// Name implements Module.
func (e *Embedding) Name() string { return e.name }

// Params implements Module.
func (e *Embedding) Params() *ParamSet { return e.params }

// ForwardTokens looks up each token's embedding. tokens is [G][S]; the
// output is [G*S, H]. The token ids are stashed for the W pass.
func (e *Embedding) ForwardTokens(tokens [][]int, cache *Cache) *tensor.Tensor {
	g := len(tokens)
	s := len(tokens[0])
	h := e.W.Cols()
	v := e.W.Rows()
	out := alloc(cache, g*s, h)
	toks := alloc(cache, g*s) // token ids as float payload for the cache
	flat := toks.Data
	for gi, seq := range tokens {
		for si, tok := range seq {
			if tok < 0 || tok >= v {
				panic("nn: token id out of vocab range")
			}
			copy(out.Data[(gi*s+si)*h:(gi*s+si+1)*h], e.W.Data[tok*h:(tok+1)*h])
			flat[gi*s+si] = float32(tok)
		}
	}
	cache.Put("tokens", toks)
	return out
}

// Forward implements Module by requiring that ForwardTokens stashed the
// token ids earlier (x is ignored; embeddings have no tensor input). This
// lets generic per-module loops treat the embedding uniformly during
// recomputation.
func (e *Embedding) Forward(x *tensor.Tensor, cache *Cache) *tensor.Tensor {
	toks := cache.Get("tokens")
	h := e.W.Cols()
	n := toks.Size()
	out := alloc(cache, n, h)
	for i := 0; i < n; i++ {
		tok := int(toks.Data[i])
		copy(out.Data[i*h:(i+1)*h], e.W.Data[tok*h:(tok+1)*h])
	}
	return out
}

// BackwardInput implements Module. Token ids have no gradient; the dy is
// stashed for the W pass and nil is returned.
func (e *Embedding) BackwardInput(dy *tensor.Tensor, cache *Cache) *tensor.Tensor {
	cache.Put("dy", dy)
	return nil
}

// BackwardParams implements Module (W pass): scatter-add dy rows into the
// rows of dW selected by the token ids.
func (e *Embedding) BackwardParams(cache *Cache, grads *ParamSet) {
	toks := cache.Get("tokens")
	dy := cache.Get("dy")
	dw := grads.Get("w")
	h := e.W.Cols()
	for i := 0; i < toks.Size(); i++ {
		tok := int(toks.Data[i])
		dst := dw.Data[tok*h : (tok+1)*h]
		src := dy.Data[i*h : (i+1)*h]
		for j := range dst {
			dst[j] += src[j]
		}
	}
}
