package comm

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Payload buffer recycling. Every Send copies its payload at the boundary
// (isolation between ranks), which in a training iteration means thousands of
// multi-kilobyte allocations for weight, gradient and activation payloads.
// The pool recycles those buffers through size-classed sync.Pools: Send draws
// its copy from the pool, and receivers hand exhausted payloads back with
// Release once they have folded them into local state.
//
// Classes grow by powers of two from bufMinLen elements; a buffer is filed
// under the largest class not exceeding its capacity, so anything fetched
// from class c is guaranteed to hold bufMinLen<<c elements.
//
// Ownership rule. A buffer has one owner, who alone may write it, until the
// owner shares it with Retain. From then until the last reference is
// released the buffer is read-only to everyone: each holder reads it for as
// long as it likes and gives its reference back with Release (or by donating
// it with SendOwned), and only the last Release files the buffer. That is
// what lets a belt hop relay a weight chunk downstream and compute out of
// the same bytes (DESIGN.md §11).

const (
	bufMinLen     = 64
	bufNumClasses = 22 // largest class: 64<<21 ≈ 134M floats (536 MB)
)

var bufPools [bufNumClasses]sync.Pool

// hdrPool recycles the *[]float32 headers that carry buffers in and out of
// the size-classed pools. Without it every Release heap-allocates the header
// it hands to sync.Pool.Put, which would put one allocation on the belt's
// per-chunk hot path (see TestBeltHotPathZeroAlloc).
var hdrPool = sync.Pool{New: func() any { return new([]float32) }}

// bufClassCeil returns the smallest class whose guaranteed capacity holds n
// elements, or bufNumClasses if n exceeds every class.
func bufClassCeil(n int) int {
	if n <= bufMinLen {
		return 0
	}
	return bits.Len(uint(n-1) >> 6)
}

// bufClassFloor returns the largest class whose guaranteed capacity is at
// most c elements, or -1 if c is below the smallest class.
func bufClassFloor(c int) int {
	if c < bufMinLen {
		return -1
	}
	f := bits.Len(uint(c)>>6) - 1
	if f >= bufNumClasses {
		f = bufNumClasses - 1
	}
	return f
}

// GetBuf returns a length-n buffer with arbitrary contents, recycled from the
// pool when one is available. The caller owns it until it is passed to
// Release (or kept forever). Callers must overwrite all n elements.
func GetBuf(n int) []float32 {
	if n == 0 {
		return nil
	}
	buf := getPooled(n)
	crcs.forget(buf) // a checksum remembered for an earlier buffer at this address
	return buf
}

// getPooled returns a length-n buffer from the pool, or a new one.
func getPooled(n int) []float32 {
	c := bufClassCeil(n)
	if c >= bufNumClasses {
		return make([]float32, n)
	}
	v := bufPools[c].Get()
	if v == nil {
		return make([]float32, n, bufMinLen<<c)
	}
	h := v.(*[]float32)
	buf := (*h)[:n]
	*h = nil
	hdrPool.Put(h)
	if bufPoison.Load() {
		shared.unfile(buf)
	}
	return buf
}

// Release gives up the caller's reference to a payload buffer; the last
// reference hands it back to the transport pool for reuse by a later Send.
// The caller must not touch buf afterwards. Payloads that are kept — wrapped
// in a tensor that outlives the call, or returned to other code — must never
// be released. Releasing foreign buffers is safe but pointless; nil and tiny
// buffers are dropped.
func Release(buf []float32) {
	if shared.n.Load() != 0 && shared.drop(buf) {
		return
	}
	crcs.forget(buf)
	c := bufClassFloor(cap(buf))
	if c < 0 {
		return
	}
	buf = buf[:cap(buf)]
	if bufPoison.Load() {
		shared.file(buf)
		nan := float32(math.NaN())
		for i := range buf {
			buf[i] = nan
		}
	}
	h := hdrPool.Get().(*[]float32)
	*h = buf
	bufPools[c].Put(h)
}

// Retain adds a reference to buf, which the caller must own: every holder
// then calls Release (or donates with SendOwned) once, and only the last
// returns the buffer to the pool. From the first Retain to that last Release
// nobody may write buf.
func Retain(buf []float32) {
	if cap(buf) == 0 {
		return
	}
	shared.add(buf)
}

// LossyPool reports whether this build's sync.Pool drops Puts — the race
// detector makes it discard a quarter of them at random — so that buffers
// given back with Release do not all come back. A test that pins an
// allocation steady state skips when it does: there is none to pin.
func LossyPool() bool {
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			return true
		}
	}
	return false
}

// SharedBufs reports how many buffers are shared right now (retained and
// not yet down to their last reference). Zero once every holder has given
// its reference back: the leak gauge of the abort and shutdown tests.
func SharedBufs() int { return int(shared.n.Load()) }

// sharedTable holds the reference count of every buffer shared by Retain,
// keyed by the buffer's first element. A buffer outside the table has the
// single implicit reference of its owner, so the unshared fast path of
// Release pays one atomic load. The table is a flat slice scanned linearly:
// a rank shares two or three chunks at a time, the slice grows to the peak
// and is reused from then on, so steady-state sharing allocates nothing.
type sharedTable struct {
	n    atomic.Int32 // len(refs), readable without mu
	mu   sync.Mutex
	refs []sharedBuf
	// filed, under SetBufPoison only, is the set of buffers sitting in the
	// pool: releasing or retaining one of them is a use after release.
	filed map[*float32]struct{}
}

type sharedBuf struct {
	base *float32
	refs int32 // ≥ 2; an entry that falls to one reference is removed
}

var shared sharedTable

// find returns the index of buf's entry, or -1. Callers hold t.mu.
func (t *sharedTable) find(base *float32) int {
	for i := range t.refs {
		if t.refs[i].base == base {
			return i
		}
	}
	return -1
}

func (t *sharedTable) add(buf []float32) {
	base := unsafe.SliceData(buf)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, pooled := t.filed[base]; pooled {
		panic("comm: Retain of a released buffer")
	}
	if i := t.find(base); i >= 0 {
		t.refs[i].refs++
		return
	}
	t.refs = append(t.refs, sharedBuf{base: base, refs: 2})
	t.n.Store(int32(len(t.refs)))
}

// drop gives up one reference to buf if it is shared, reporting whether it
// was: the caller of an unshared buffer holds the last reference and files it.
func (t *sharedTable) drop(buf []float32) bool {
	base := unsafe.SliceData(buf) // nil and empty buffers are never in the table: Retain skips them
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.find(base)
	if i < 0 {
		return false
	}
	if t.refs[i].refs--; t.refs[i].refs == 1 {
		last := len(t.refs) - 1
		t.refs[i] = t.refs[last]
		t.refs[last] = sharedBuf{}
		t.refs = t.refs[:last]
		t.n.Store(int32(last))
	}
	return true
}

// isShared reports whether anyone besides the caller holds a reference.
func (t *sharedTable) isShared(buf []float32) bool {
	if t.n.Load() == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.find(unsafe.SliceData(buf)) >= 0
}

// private returns payload itself when the caller holds the only reference,
// and otherwise a pooled copy, giving the caller's reference back. The
// fabrics that deliver a donated buffer into another rank's hands (the
// in-process cluster, a TCP self-send) go through it, so a receiver never
// aliases memory a sender still reads.
func private(payload []float32) []float32 {
	if !shared.isShared(payload) {
		return payload
	}
	own := GetBuf(len(payload))
	copy(own, payload)
	Release(payload)
	return own
}

// bufPoison is the SetBufPoison switch.
var bufPoison atomic.Bool

// SetBufPoison is the pool's test hook, in the spirit of
// tensor.SetArenaPoison: while on, the last Release of a buffer fills it
// with NaN — so a holder that reads a chunk after giving its reference back
// computes NaN instead of silently using stale weights — and releasing or
// retaining a buffer that already sits in the pool panics instead of filing
// it twice. Turn it on before the buffers under test are drawn.
func SetBufPoison(on bool) {
	shared.mu.Lock()
	if on && shared.filed == nil {
		shared.filed = make(map[*float32]struct{})
	}
	if !on {
		shared.filed = nil
	}
	shared.mu.Unlock()
	bufPoison.Store(on)
}

func (t *sharedTable) file(buf []float32) {
	base := unsafe.SliceData(buf)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filed == nil {
		return
	}
	if _, pooled := t.filed[base]; pooled {
		panic("comm: Release of a buffer with no live reference")
	}
	t.filed[base] = struct{}{}
}

func (t *sharedTable) unfile(buf []float32) {
	t.mu.Lock()
	delete(t.filed, unsafe.SliceData(buf))
	t.mu.Unlock()
}

// crcs is the table of body checksums behind Forward.
var crcs crcTable

// Seal records crc as the IEEE CRC-32 of payload's f32 wire image,
// computed by the payload's producer as it wrote every element
// (tensor.CopyCRC32, tensor.AddIntoCRC32), so that Forward of payload seals
// its frame without reading the body. The caller owns payload, a GetBuf
// buffer, and must not write it again before it is sent; the record lasts
// until the buffer's last Release. A producer seals only where the
// transport reads the checksum (Transport.SealsF32). Payloads under
// crcMinElems elements are not recorded.
func Seal(payload []float32, crc uint32) {
	crcs.sealed.Add(1)
	crcs.remember(payload, crc)
}

// CRCTableStats reports, since the process started, how many payloads
// their producers sealed (Seal), the checksum table's largest occupancy and
// how many entries it evicted to stay within its bound.
func CRCTableStats() (sealed, peak, evicted int) {
	crcs.mu.Lock()
	defer crcs.mu.Unlock()
	return int(crcs.sealed.Load()), crcs.peak, crcs.evicted
}

// crcTable remembers, for f32 payloads of at least crcMinElems elements,
// the CRC of the body the TCP reader just verified or the payload's
// producer computed as it wrote it (Seal), so that Forward can seal the
// unchanged payload without reading it again. Entries are keyed by the
// buffer's base address as a uintptr, so the table keeps no buffer alive,
// and an entry is forgotten at the buffer's last Release, whenever GetBuf
// hands out a buffer at that address and when a TCP self-send delivers the
// buffer, which no reader verified. A payload that is kept and never
// released leaves its entry behind until the table is full and evicts it;
// Forward never trusts an entry whose length differs. When the table is
// empty, forget costs one atomic load.
type crcTable struct {
	n    atomic.Int32 // len(ents), readable without mu
	mu   sync.Mutex
	ents []crcEntry // oldest first
	// sealed, peak and evicted are CRCTableStats.
	sealed        atomic.Int64
	peak, evicted int
}

type crcEntry struct {
	base uintptr
	n    int
	crc  uint32
}

// The two sizes are measured on a 2-core AVX-512 host. Remembering,
// looking up and forgetting one entry costs 80–120 ns at 0–21 entries; a
// body CRC costs that at 400–500 elements and 1 µs at 4096. On the wide TCP
// benchmark workloads every relayed payload is either a 0- or 1-element
// scalar all-reduce shard or at least 16 384 elements. With the belt's
// producers sealing the owner's weight copy and every folded gradient hop,
// the table holds at most 13 entries for WZB2's four ranks in one process
// over three steps (TestWideBeltCRCTableNeverEvicts) and 16 over a 16 s
// wide-wzb2-tcp benchmark run, and never evicts.
const (
	// crcMinElems is the smallest payload whose checksum is remembered. At
	// it a full CRC costs ten times the table's round trip, so an entry pays
	// for itself even when half of them are never forwarded.
	crcMinElems = 4096
	// crcMaxEntries bounds the table at four times the largest occupancy
	// measured. Every GetBuf and last Release scans it while it is not
	// empty: 30 ns at 21 entries, 60–80 ns full.
	crcMaxEntries = 64
)

func bufBase(buf []float32) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(buf))) }

// find returns the index of base's entry, or -1. Callers hold t.mu.
func (t *crcTable) find(base uintptr) int {
	for i := range t.ents {
		if t.ents[i].base == base {
			return i
		}
	}
	return -1
}

// remember records crc as the checksum of payload's f32 wire image.
func (t *crcTable) remember(payload []float32, crc uint32) {
	if len(payload) < crcMinElems {
		return
	}
	e := crcEntry{base: bufBase(payload), n: len(payload), crc: crc}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.find(e.base); i >= 0 {
		t.ents[i] = e
		return
	}
	if len(t.ents) == crcMaxEntries {
		copy(t.ents, t.ents[1:])
		t.ents = t.ents[:len(t.ents)-1]
		t.evicted++
	}
	t.ents = append(t.ents, e)
	t.n.Store(int32(len(t.ents)))
	t.peak = max(t.peak, len(t.ents))
}

// known returns the remembered checksum of payload, if there is one for a
// buffer of its base and length.
func (t *crcTable) known(payload []float32) (uint32, bool) {
	if t.n.Load() == 0 || len(payload) == 0 {
		return 0, false
	}
	base := bufBase(payload)
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.find(base); i >= 0 && t.ents[i].n == len(payload) {
		return t.ents[i].crc, true
	}
	return 0, false
}

// forget drops buf's entry, if any.
func (t *crcTable) forget(buf []float32) {
	if t.n.Load() == 0 || cap(buf) == 0 {
		return
	}
	base := bufBase(buf)
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := t.find(base); i >= 0 {
		last := len(t.ents) - 1
		copy(t.ents[i:], t.ents[i+1:])
		t.ents = t.ents[:last]
		t.n.Store(int32(last))
	}
}
