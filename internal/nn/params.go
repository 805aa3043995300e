package nn

import (
	"fmt"

	"weipipe/internal/tensor"
)

// ParamSet is an ordered collection of named tensors. The order is the wire
// order: Flatten/AddFlat/SetFlat lay parameters out deterministically, which
// is what lets WeiPipe circulate a module's weights as one flat chunk.
type ParamSet struct {
	names   []string
	tensors map[string]*tensor.Tensor
	size    int

	// home holds every tensor's own storage, in wire order, while the set is
	// bound to a flat buffer (Bind); bound says whether it is.
	home  [][]float32
	bound bool
}

// NewParamSet returns an empty set.
func NewParamSet() *ParamSet {
	return &ParamSet{tensors: make(map[string]*tensor.Tensor)}
}

// Add registers t under name. Names must be unique.
func (p *ParamSet) Add(name string, t *tensor.Tensor) {
	if _, ok := p.tensors[name]; ok {
		panic(fmt.Sprintf("nn: duplicate param %q", name))
	}
	p.names = append(p.names, name)
	p.tensors[name] = t
	p.size += numel(t)
}

// numel is t's element count by shape — t.Size() for a tensor with storage,
// and the size a storage-less one (NewUnbound) takes once bound.
func numel(t *tensor.Tensor) int {
	n := 1
	for _, d := range t.Shape() {
		n *= d
	}
	return n
}

// Get returns the tensor registered under name.
func (p *ParamSet) Get(name string) *tensor.Tensor {
	t, ok := p.tensors[name]
	if !ok {
		panic(fmt.Sprintf("nn: unknown param %q", name))
	}
	return t
}

// Names returns the parameter names in wire order. Callers must not mutate.
func (p *ParamSet) Names() []string { return p.names }

// Size returns the total number of scalar parameters.
func (p *ParamSet) Size() int { return p.size }

// NewLike returns a zero-filled set with the same names and shapes, used for
// gradient accumulators.
func (p *ParamSet) NewLike() *ParamSet {
	out := NewParamSet()
	for _, n := range p.names {
		out.Add(n, tensor.New(p.tensors[n].Shape()...))
	}
	return out
}

// NewUnbound returns a set with the same names and shapes and no storage at
// all: its tensors are usable only while the set is bound to a flat buffer.
// It is how a gradient accumulator lives in the buffer that ships it.
func (p *ParamSet) NewUnbound() *ParamSet {
	out := NewParamSet()
	for _, n := range p.names {
		out.Add(n, tensor.Shell(p.tensors[n].Shape()...))
	}
	return out
}

// Bind points every tensor at its slice of flat, in wire order, without
// copying: until Unbind (or the next Bind) the set is a view of that buffer
// — what SetFlat(flat) would have copied in is what the tensors read, and
// what they accumulate lands in flat where FlattenInto would have put it.
// Each slice is capacity-clamped, so a kernel that runs past its tensor
// faults instead of reading its neighbour. flat must have length Size() and
// must outlive the binding.
func (p *ParamSet) Bind(flat []float32) {
	if len(flat) != p.size {
		panic(fmt.Sprintf("nn: Bind needs %d elems, got %d", p.size, len(flat)))
	}
	if p.home == nil {
		p.home = make([][]float32, len(p.names))
	}
	off := 0
	for i, n := range p.names {
		t := p.tensors[n]
		if !p.bound {
			p.home[i] = t.Data
		}
		end := off + numel(t)
		t.Data = flat[off:end:end]
		off = end
	}
	p.bound = true
}

// Unbind points every tensor back at its own storage, untouched since Bind
// (nil for a NewUnbound set). Unbinding an unbound set is a no-op.
func (p *ParamSet) Unbind() {
	if !p.bound {
		return
	}
	for i, n := range p.names {
		p.tensors[n].Data = p.home[i]
	}
	p.bound = false
}

// Clone returns a deep copy.
func (p *ParamSet) Clone() *ParamSet {
	out := NewParamSet()
	for _, n := range p.names {
		out.Add(n, p.tensors[n].Clone())
	}
	return out
}

// Zero zeroes every tensor in the set.
func (p *ParamSet) Zero() {
	for _, n := range p.names {
		p.tensors[n].Zero()
	}
}

// Flatten appends all parameters, in wire order, into a new flat vector.
func (p *ParamSet) Flatten() []float32 {
	out := make([]float32, 0, p.size)
	for _, n := range p.names {
		out = append(out, p.tensors[n].Data...)
	}
	return out
}

// FlattenInto copies all parameters into dst, which must have length Size().
func (p *ParamSet) FlattenInto(dst []float32) {
	if len(dst) != p.size {
		panic(fmt.Sprintf("nn: FlattenInto needs %d elems, got %d", p.size, len(dst)))
	}
	off := 0
	for _, n := range p.names {
		d := p.tensors[n].Data
		copy(dst[off:off+len(d)], d)
		off += len(d)
	}
}

// SetFlat overwrites all parameters from a flat vector in wire order.
func (p *ParamSet) SetFlat(src []float32) {
	if len(src) != p.size {
		panic(fmt.Sprintf("nn: SetFlat needs %d elems, got %d", p.size, len(src)))
	}
	off := 0
	for _, n := range p.names {
		d := p.tensors[n].Data
		copy(d, src[off:off+len(d)])
		off += len(d)
	}
}

// AddFlat adds a flat vector into the parameters in wire order (used to fold
// a received gradient chunk into a local accumulator).
func (p *ParamSet) AddFlat(src []float32) {
	if len(src) != p.size {
		panic(fmt.Sprintf("nn: AddFlat needs %d elems, got %d", p.size, len(src)))
	}
	off := 0
	for _, n := range p.names {
		d := p.tensors[n].Data
		for i := range d {
			d[i] += src[off+i]
		}
		off += len(d)
	}
}

// AddInto accumulates src into p elementwise; layouts must match.
func (p *ParamSet) AddInto(src *ParamSet) {
	if src.size != p.size || len(src.names) != len(p.names) {
		panic("nn: AddInto layout mismatch")
	}
	for _, n := range p.names {
		tensor.AddInto(p.tensors[n], src.tensors[n])
	}
}

// Scale multiplies every parameter by s.
func (p *ParamSet) Scale(s float32) {
	for _, n := range p.names {
		t := p.tensors[n]
		tensor.Scale(t, t, s)
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between two
// layout-identical sets (used by equivalence tests).
func (p *ParamSet) MaxAbsDiff(o *ParamSet) float32 {
	var m float32
	for _, n := range p.names {
		a, b := p.tensors[n].Data, o.tensors[n].Data
		for i := range a {
			d := a[i] - b[i]
			if d < 0 {
				d = -d
			}
			if d > m {
				m = d
			}
		}
	}
	return m
}
