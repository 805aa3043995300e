package comm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"weipipe/internal/tensor"
)

// crc32Combine(CRC(A), CRC(B), len(B)) is CRC(A‖B) for every split of every
// buffer, empty and one-byte halves and a belt-chunk-sized body included.
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(a, b []byte) {
		t.Helper()
		want := crc32.Update(crc32.ChecksumIEEE(a), crc32.IEEETable, b)
		if got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b))); got != want {
			t.Fatalf("combine of %d+%d bytes = %#x, want %#x", len(a), len(b), got, want)
		}
	}
	for _, n := range []int{0, 1, 2, 7, 44, 64, 1000, 4099} {
		buf := make([]byte, n)
		rng.Read(buf)
		for _, cut := range []int{0, 1, n / 2, n - 1, n} {
			if cut >= 0 && cut <= n {
				check(buf[:cut], buf[cut:])
			}
		}
		for i := 0; i < 8; i++ {
			cut := rng.Intn(n + 1)
			check(buf[:cut], buf[cut:])
		}
	}
	// A frame header before a 3.3 MB body: the belt relay's split.
	body := make([]byte, 3_283_200)
	rng.Read(body)
	hdr := make([]byte, frameCRCOffset)
	rng.Read(hdr)
	check(hdr, body)
	check(body, hdr)
	check(nil, body)
}

// A frame sealed from a known body checksum carries the header — and so the
// image — a full seal gives: the golden image is unchanged whichever way the
// writer seals.
func TestForwardSealMatchesFullSeal(t *testing.T) {
	tag := Tag{Kind: KindGrad, A: -3, B: -(1 << 33) + 5}
	payload := GetBuf(len(goldenPayload))
	copy(payload, goldenPayload)
	fwd := &outFrame{seq: 41, tag: tag, codec: CodecF32, payload: payload,
		bodyCRC: crc32.ChecksumIEEE(tensor.F32LE(goldenPayload)), crcKnown: true}
	fwd.seal(2, 7)
	if got := hex.EncodeToString(fwd.image()); got != goldenF32 {
		t.Errorf("forwarded image:\n got %s\nwant %s", got, goldenF32)
	}
	fwd.release()

	// The seal takes the checksum it is given and reads only the header: a
	// known CRC that does not match the body is sealed as it is, and the
	// next hop's reader is what catches it.
	body := GetBuf(len(goldenPayload))
	copy(body, goldenPayload)
	f := &outFrame{seq: 1, tag: tag, codec: CodecF32, payload: body, bodyCRC: 0xdeadbeef, crcKnown: true}
	f.seal(2, 7)
	want := frameCRC(f.hdr[:], 0xdeadbeef, len(f.body))
	if got := binary.LittleEndian.Uint32(f.hdr[frameCRCOffset:]); got != want {
		t.Errorf("seal with a known body CRC wrote %#x, want %#x: it read the body", got, want)
	}
	f.release()

	// And for bodies past the table's threshold, over random headers.
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{crcMinElems, crcMinElems + 1, 820800} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		tag := Tag{Kind: KindWeight, A: rng.Intn(8), B: rng.Int()}
		full := sealedFrame(1, 3, 17, tag, CodecF32, src)
		fwd := &outFrame{seq: 17, tag: tag, codec: CodecF32, payload: append(GetBuf(n)[:0], src...),
			bodyCRC: crc32.ChecksumIEEE(tensor.F32LE(src)), crcKnown: true}
		fwd.seal(1, 3)
		if fwd.hdr != full.hdr {
			t.Fatalf("n=%d: forwarded header %x, full seal %x", n, fwd.hdr, full.hdr)
		}
		full.release()
		fwd.release()
	}
}

// The table remembers a checksum for a buffer of its base and length, and
// forgets it at the buffer's last Release — never at an earlier one.
func TestCRCTableLifetime(t *testing.T) {
	buf := GetBuf(4 * crcMinElems)
	crcs.remember(buf, 0x1234)
	if crc, ok := crcs.known(buf); !ok || crc != 0x1234 {
		t.Fatalf("known = %#x, %v; want 0x1234, true", crc, ok)
	}
	if _, ok := crcs.known(buf[:len(buf)-1]); ok {
		t.Error("a shorter view of the buffer matched the remembered length")
	}
	Retain(buf)
	Release(buf)
	if _, ok := crcs.known(buf); !ok {
		t.Error("a Release that was not the last forgot the checksum")
	}
	Release(buf)
	if _, ok := crcs.known(buf); ok {
		t.Error("the last Release left the checksum behind")
	}

	small := GetBuf(crcMinElems - 1)
	crcs.remember(small, 1)
	if _, ok := crcs.known(small); ok {
		t.Error("a payload below crcMinElems was remembered")
	}
	Release(small)

	var kept [][]float32
	for i := 0; i < crcMaxEntries+8; i++ {
		b := GetBuf(crcMinElems)
		crcs.remember(b, uint32(i))
		kept = append(kept, b)
	}
	if n := int(crcs.n.Load()); n > crcMaxEntries {
		t.Errorf("table holds %d entries, bound %d", n, crcMaxEntries)
	}
	if _, ok := crcs.known(kept[0]); ok {
		t.Error("the oldest entry survived a full table")
	}
	for _, b := range kept {
		Release(b)
	}
}

// dialMeshEach brings up a loopback mesh whose rank r runs opts(r).
func dialMeshEach(t *testing.T, n int, opts func(r int) TCPOptions) []*TCPTransport {
	t.Helper()
	addrs, err := LoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*TCPTransport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = DialTCPOpts(r, addrs, opts(r))
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	return trs
}

// Under SetBufPoison, Forward checks its promise: a received payload written
// since receipt panics instead of leaving with a stale checksum. A relay
// through a wrapper (a group view, a fault injector with nothing scheduled)
// reaches the same check: wrappers hand Forward on, not a copying Send.
func TestForwardOfWrittenPayloadPanics(t *testing.T) {
	poisonPool(t)
	trs := dialMeshEach(t, 3, func(int) TCPOptions { return TCPOptions{Deadlines: Deadlines{Dial: 5 * time.Second}} })
	const n = 4 * crcMinElems
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) / 7
	}
	group, err := NewGroup(trs[1], []int{0, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []struct {
		name string
		t    Transport
	}{{"group", group}, {"fault transport", NewFaultTransport(trs[1], FaultConfig{})}} {
		tag := Tag{Kind: KindWeight, A: 10 + i}
		if err := trs[0].Send(1, tag, src); err != nil {
			t.Fatal(err)
		}
		got, err := trs[1].RecvTimeout(0, tag, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got[n/2] += 1
		// The panicking Forward releases got, the reference it was handed.
		mustPanic(t, "Forward of a written payload through a "+w.name, func() {
			w.t.Forward(2, Tag{Kind: KindWeight, A: 20 + i}, got)
		})
	}

	if err := trs[0].Send(1, Tag{Kind: KindWeight, A: 1}, src); err != nil {
		t.Fatal(err)
	}
	got, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight, A: 1}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := crcs.known(got); !ok {
		t.Fatal("the reader remembered no checksum for a received f32 payload")
	}
	got[n/2] += 1
	Retain(got) // a second reference, for the Forward
	mustPanic(t, "Forward of a written payload", func() {
		trs[1].Forward(2, Tag{Kind: KindWeight, A: 2}, got)
	})

	// The panic released the Forward's reference and never enqueued the
	// payload, so the first is still ours and the buffer is unshared again.
	shared.mu.Lock()
	leaked := shared.find(unsafe.SliceData(got)) >= 0
	shared.mu.Unlock()
	if leaked {
		t.Fatal("the panicking Forward kept the reference it was handed")
	}
	// Sent round through a self-send, which no reader verifies, it comes back
	// with no remembered checksum, and forwarding it takes a full seal.
	want := got[n/2]
	if err := trs[1].SendOwned(1, Tag{Kind: KindWeight, A: 3}, got); err != nil {
		t.Fatal(err)
	}
	back, err := trs[1].RecvTimeout(1, Tag{Kind: KindWeight, A: 3}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := crcs.known(back); ok {
		t.Fatal("a self-sent payload kept the checksum its reader verified before it was written")
	}
	if err := trs[1].Forward(2, Tag{Kind: KindWeight, A: 4}, back); err != nil {
		t.Fatal(err)
	}
	fwd, err := trs[2].RecvTimeout(1, Tag{Kind: KindWeight, A: 4}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fwd[n/2] != want {
		t.Errorf("forwarded element = %v, want %v", fwd[n/2], want)
	}
	Release(fwd)
}

// A relay that forwards what it received puts the same bytes on its next
// link, sealed from the checksum its reader verified; a chaos-corrupted
// frame on that link is still caught at the next hop and retransmitted, and
// every payload arrives intact.
func TestForwardRelayUnderCorruption(t *testing.T) {
	poisonPool(t)
	trs := dialMeshEach(t, 3, func(r int) TCPOptions {
		o := TCPOptions{
			Deadlines: Deadlines{Dial: 5 * time.Second, Heartbeat: 25 * time.Millisecond, Retransmit: 40 * time.Millisecond},
		}
		if r == 1 { // only the relay's outgoing links misbehave
			o.Chaos = &ChaosConfig{Seed: 3, Corrupt: 0.3}
		}
		return o
	})
	const msgs, n = 40, 3 * crcMinElems
	value := func(i, j int) float32 { return float32(i) + float32(j)/4096 }
	go func() {
		buf := make([]float32, n)
		for i := 0; i < msgs; i++ {
			for j := range buf {
				buf[j] = value(i, j)
			}
			if err := trs[0].Send(1, Tag{Kind: KindWeight, A: i}, buf); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		for i := 0; i < msgs; i++ {
			got, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight, A: i}, 20*time.Second)
			if err != nil {
				t.Errorf("relay recv %d: %v", i, err)
				return
			}
			if _, ok := crcs.known(got); !ok {
				t.Errorf("relay %d: no remembered checksum to forward with", i)
			}
			if err := trs[1].Forward(2, Tag{Kind: KindWeight, A: i}, got); err != nil {
				t.Errorf("forward %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < msgs; i++ {
		got, err := trs[2].RecvTimeout(1, Tag{Kind: KindWeight, A: i}, 20*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		for j := range got {
			if math.Float32bits(got[j]) != math.Float32bits(value(i, j)) {
				t.Fatalf("recv %d[%d] = %v, want %v", i, j, got[j], value(i, j))
			}
		}
		Release(got)
	}
	if f := trs[2].CommStats().TotalFaults(); f.CorruptFrames == 0 {
		t.Error("chaos never corrupted a relayed frame; the test proved nothing")
	}
	if f := trs[1].CommStats().TotalFaults(); f.Retransmits == 0 {
		t.Error("the relay never retransmitted a corrupted frame")
	}
	assertNoRetainedPayloads(t, trs)
}

// A sealed payload — a kept buffer its owner sealed after writing it (a
// rank's master) or a gradient fold sealed as it was summed
// (tensor.AddIntoCRC32) — leaves through Forward as the frame SendOwned
// gives the same values: the same bytes, header CRC included, with only the
// header read at the seal.
func TestProducerSealedFrameMatchesSendOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	random := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		return x
	}
	for _, n := range []int{crcMinElems, crcMinElems + 1, 3*8192 + 5, 820800} {
		src, acc := random(n), random(n)
		sum := append([]float32(nil), acc...)
		tensor.AddIntoF32(sum, src)
		for _, w := range []struct {
			name  string
			write func(p []float32) uint32
			want  []float32
		}{
			{"kept", func(p []float32) uint32 { copy(p, src); return ChecksumSlice(p) }, src},
			{"fold", func(p []float32) uint32 { copy(p, acc); return tensor.AddIntoCRC32(p, src) }, sum},
		} {
			tag := Tag{Kind: KindGrad, A: rng.Intn(8), B: rng.Int()}
			p := GetBuf(n)
			Seal(p, w.write(p))
			fwd := newOutFrame(tag, CodecF32, p, true)
			if !fwd.crcKnown {
				t.Fatalf("%s n=%d: Forward found no checksum for a sealed payload", w.name, n)
			}
			fwd.seq = 9
			fwd.seal(1, 3)
			full := newOutFrame(tag, CodecF32, append(GetBuf(n)[:0], w.want...), false)
			full.seq = 9
			full.seal(1, 3)
			if !bytes.Equal(fwd.image(), full.image()) {
				t.Fatalf("%s n=%d: the sealed frame differs from SendOwned's (headers %x vs %x)", w.name, n, fwd.hdr, full.hdr)
			}
			fwd.release()
			full.release()
		}
	}
}

// Under SetBufPoison, Forward holds a producer to its seal: a payload
// written after Seal panics, through the bare transport and through the
// wrappers; an unwritten one arrives intact.
func TestForwardOfWrittenSealedPayloadPanics(t *testing.T) {
	poisonPool(t)
	trs := dialMeshEach(t, 2, func(int) TCPOptions { return TCPOptions{Deadlines: Deadlines{Dial: 5 * time.Second}} })
	const n = 4 * crcMinElems
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) / 7
	}
	group, err := NewGroup(trs[0], []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []struct {
		name string
		t    Transport
	}{{"transport", trs[0]}, {"group", group}, {"fault transport", NewFaultTransport(trs[0], FaultConfig{})}} {
		tag := Tag{Kind: KindWeight, A: i}
		if !w.t.SealsF32(tag) {
			t.Fatalf("%s: an f32 TCP tag is not sealed", w.name)
		}
		p := GetBuf(n)
		copy(p, src)
		Seal(p, ChecksumSlice(p))
		p[n/3] += 1
		// The panicking Forward releases p, the reference it was handed.
		mustPanic(t, "Forward of a payload written after its seal through a "+w.name, func() {
			w.t.Forward(1, tag, p)
		})
	}
	p := GetBuf(n)
	copy(p, src)
	Seal(p, ChecksumSlice(p))
	if err := trs[0].Forward(1, Tag{Kind: KindWeight, A: 9}, p); err != nil {
		t.Fatal(err)
	}
	got, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight, A: 9}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("sealed payload arrived with [%d] = %v, want %v", i, got[i], src[i])
		}
	}
	Release(got)
}

// Only a fabric that checksums an f32 image asks for one: the in-process
// cluster never does, and neither does a bf16 tag on TCP.
func TestSealsF32OnlyOnTheF32Wire(t *testing.T) {
	tags := []Tag{{Kind: KindWeight}, {Kind: KindGrad}, {Kind: KindColl}, {Kind: KindCtl}}
	for _, codec := range []CodecFunc{nil, BeltBF16} {
		for _, tr := range NewClusterCodec(2, codec).Transports() {
			for _, tag := range tags {
				if tr.SealsF32(tag) {
					t.Errorf("the in-process fabric asks for a checksum under %v", tag)
				}
			}
		}
	}
	trs := dialMeshEach(t, 2, func(int) TCPOptions {
		return TCPOptions{Deadlines: Deadlines{Dial: 5 * time.Second}, Codec: BeltBF16}
	})
	for _, tag := range tags {
		if got, want := trs[0].SealsF32(tag), BeltBF16(tag) == CodecF32; got != want {
			t.Errorf("TCP under BeltBF16: SealsF32(%v) = %v, want %v", tag, got, want)
		}
	}
}
