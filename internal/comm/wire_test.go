package comm

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"weipipe/internal/nn"
	"weipipe/internal/tensor"
)

// The zero-copy wire path: the transport seals a header around the
// payload's own memory and reads incoming bytes straight into pooled
// buffers. These tests pin that the bytes on the wire did not change, that
// the steady state allocates nothing per frame, and that retained payloads
// are retransmitted intact and returned to the pool exactly once.

// sealedFrame runs a copy of payload through the production seal path.
func sealedFrame(src int, epoch uint32, seq uint64, tag Tag, codec WireCodec, payload []float32) *outFrame {
	owned := GetBuf(len(payload))
	copy(owned, payload)
	f := &outFrame{seq: seq, tag: tag, codec: codec, payload: owned}
	f.seal(src, epoch)
	return f
}

// encodeFrame builds a data frame's contiguous wire image. kind is the raw
// kind field; it must agree with codec.
func encodeFrame(src int, kind, epoch uint32, a, b int64, seq uint64, codec WireCodec, payload []float32) []byte {
	tag := Tag{Kind: Kind(kind & 0xff), A: int(a), B: int(b)}
	if kindField(tag.Kind, codec) != kind {
		panic(fmt.Sprintf("encodeFrame: kind field %#x does not carry codec %d", kind, codec))
	}
	f := sealedFrame(src, epoch, seq, tag, codec, payload)
	defer f.release()
	return f.image()
}

// encodeCtlFrame builds a control frame's wire image.
func encodeCtlFrame(src int, kind, epoch uint32, a int64) []byte {
	return newCtlFrame(src, kind, epoch, a).image()
}

// Wire images produced by the allocate-and-encode encodeFrame /
// encodeCtlFrame the view-based encoder replaced, for goldenFrames below: an
// odd payload length, negative tag fields, both codecs and an ack — and the
// envelope (kind 0xFFFFFFF2) a retired packaging mode wrapped all three in.
const (
	goldenF32   = "020000000100000007000000fdffffffffffffff05000000feffffff290000000000000005000000000000008ba1137c000000000000a0bf5ed0324f6042a20ddb0f4940"
	goldenBF16  = "020000000101000007000000fdffffffffffffff05000000feffffff2a0000000000000005000000000000006865a4be0000a0bf334fa20d4940"
	goldenAck   = "02000000f0ffffff0700000029000000000000000000000000000000000000000000000000000000000000007b69e535"
	goldenBurst = "02000000f2ffffff07000000030000000000000000000000000000000000000000000000ae00000000000000995ab9ee" +
		goldenAck + goldenF32 + goldenBF16
)

var goldenPayload = []float32{0, -1.25, 3e9, 1e-30, float32(math.Pi)}

// goldenFrames seals the frames the golden images were taken from.
func goldenFrames() (ack, f32, bf16 *outFrame) {
	mk := func(seq uint64, codec WireCodec) *outFrame {
		return sealedFrame(2, 7, seq, Tag{Kind: KindGrad, A: -3, B: -(1 << 33) + 5}, codec, goldenPayload)
	}
	return newCtlFrame(2, ctlAck, 7, 41), mk(41, CodecF32), mk(42, CodecBF16)
}

// The view-based encoder must put exactly the golden bytes on the wire,
// as one image and as writev pieces.
func TestWireImageGolden(t *testing.T) {
	ack, f32, bf16 := goldenFrames()
	defer f32.release()
	defer bf16.release()
	for _, tc := range []struct {
		name  string
		frame *outFrame
		want  string
	}{
		{"f32", f32, goldenF32},
		{"bf16", bf16, goldenBF16},
		{"ack", ack, goldenAck},
	} {
		if got := hex.EncodeToString(tc.frame.image()); got != tc.want {
			t.Errorf("%s image changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if got := hex.EncodeToString(bytes.Join(tc.frame.appendTo(nil), nil)); got != tc.want {
			t.Errorf("%s writev pieces differ from the image", tc.name)
		}
	}
}

// The golden images must decode to exactly the values the per-element
// decoder produced; the retired envelope is refused without resynchronising,
// so the link tears down and retransmits instead of mis-framing.
func TestWireImageGoldenDecodes(t *testing.T) {
	wantBF := append([]float32(nil), goldenPayload...)
	tensor.RoundBF16Slice(wantBF)
	check := func(name string, fr *frameReader, seq uint64, want []float32) {
		t.Helper()
		h, got, synced, err := fr.next()
		if err != nil || !synced {
			t.Fatalf("%s: %v (synced=%v)", name, err, synced)
		}
		defer Release(got)
		if h.src != 2 || h.epoch != 7 || h.seq != seq || h.a != -3 || h.b != -(1<<33)+5 || h.tag().Kind != KindGrad {
			t.Fatalf("%s: header %+v", name, h)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d elems, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	unhex := func(s string) *frameReader {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return &frameReader{r: bytes.NewReader(b), size: 4}
	}
	check("f32", unhex(goldenF32), 41, goldenPayload)
	check("bf16", unhex(goldenBF16), 42, wantBF)
	var ce *CorruptionError
	if _, payload, synced, err := unhex(goldenBurst).next(); !errors.As(err, &ce) || synced || payload != nil {
		t.Fatalf("retired burst envelope: err %v, synced=%v, payload %v; want an unsynced *CorruptionError", err, synced, payload)
	}
}

// linkFrames returns every frame a link still references.
func linkFrames(l *tcpLink) []*outFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(append([]*outFrame(nil), l.sendq...), l.retired...)
}

// After a clean Flush + Close on both ends no link retains a payload.
func assertNoRetainedPayloads(t *testing.T, trs []*TCPTransport) {
	t.Helper()
	for _, tr := range trs {
		if err := tr.Flush(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range trs {
		tr.Close()
	}
	for r, tr := range trs {
		for _, l := range tr.links {
			if l == nil {
				continue
			}
			for _, f := range linkFrames(l) {
				if f != nil && f.payload != nil {
					t.Errorf("rank %d link %d still holds the payload of seq %d after Flush+Close", r, l.peer, f.seq)
				}
			}
		}
	}
}

// lossyPool reports whether sync.Pool drops Puts: the race detector makes it
// discard a quarter of them at random, so no buffer pool has a steady state
// there.
func lossyPool() bool {
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			return true
		}
	}
	return false
}

// A loopback pair exchanging 1 MiB donated frames must, once warm, allocate
// (far) less than 1 KiB per frame: no encode buffer, no staging buffer, no
// decode copy — only frame bookkeeping.
func TestTCPSteadyStateAllocs(t *testing.T) {
	if lossyPool() {
		t.Skip("sync.Pool is lossy in this build (-race): no allocation steady state to pin")
	}
	const elems = 1 << 18 // 1 MiB of f32
	for _, tc := range []struct {
		name  string
		codec CodecFunc
	}{
		{"frame", nil},
		{"frame-bf16", BeltBF16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := dialMeshOpts(t, 2, TCPOptions{Codec: tc.codec})
			tag := Tag{Kind: KindWeight, A: 3}
			cycle := func() {
				buf := GetBuf(elems)
				for i := range buf {
					buf[i] = float32(i & 127) // exact in bf16 too
				}
				if err := trs[0].SendOwned(1, tag, buf); err != nil {
					t.Fatal(err)
				}
				got, err := trs[1].RecvTimeout(0, tag, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != elems || got[elems-1] != float32((elems-1)&127) {
					t.Fatalf("payload damaged: %d elems, last %v", len(got), got[len(got)-1])
				}
				Release(got)
			}
			// A GC cycle empties the sync.Pools and would charge a fresh
			// megabyte to whichever frame came next.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			// Warm-up: stock the pool past any in-flight high-water mark (a
			// sent payload stays out until its ack comes back), then run
			// the cycle until the frame bookkeeping has settled.
			var stock [16][]float32
			for i := range stock {
				stock[i] = GetBuf(elems >> (i & 1)) // full-width and packed-bf16 size classes
			}
			for _, b := range stock {
				Release(b)
			}
			for i := 0; i < 16; i++ {
				cycle()
			}
			const frames = 64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < frames; i++ {
				cycle()
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / frames; per >= 1024 {
				t.Errorf("%d bytes allocated per 1 MiB frame, want < 1 KiB", per)
			}
			assertNoRetainedPayloads(t, trs)
		})
	}
}

// Retransmission resends the retained payload itself. Under every chaos
// fault, multi-element f32 and bf16 streams must still arrive exactly once,
// in order and bit-identical — and every retained payload must be back in
// the pool afterwards.
func TestTCPChaosRetransmitsRetainedPayload(t *testing.T) {
	every := ChaosConfig{Seed: 11, Drop: 0.15, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1, ResetEvery: 13}
	for _, tc := range []struct {
		name  string
		codec CodecFunc
		chaos ChaosConfig
	}{
		{"frame-f32", nil, every},
		{"frame-bf16", BeltBF16, every},
		// Loss, duplication and reordering alone: the connection never
		// breaks, so only retransmission and dedup stand between a dropped
		// frame and a lost or doubled delivery.
		{"drop-dup-reorder", nil, ChaosConfig{Seed: 99, Drop: 0.25, Dup: 0.2, Reorder: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := dialMeshOpts(t, 2, TCPOptions{
				DialTimeout:       5 * time.Second,
				HeartbeatInterval: 25 * time.Millisecond,
				RetransmitTimeout: 40 * time.Millisecond,
				ReconnectBackoff:  5 * time.Millisecond,
				Codec:             tc.codec,
				Chaos:             &tc.chaos,
			})
			const n, elems = 120, 777
			value := func(i, j int) float32 { return float32(i) + float32(j)/1024 }
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					buf := GetBuf(elems)
					for j := range buf {
						buf[j] = value(i, j)
					}
					if err := trs[0].SendOwned(1, Tag{Kind: KindWeight}, buf); err != nil {
						t.Errorf("send %d: %v", i, err)
						return
					}
				}
			}()
			for i := 0; i < n; i++ {
				got, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight}, 20*time.Second)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if len(got) != elems {
					t.Fatalf("recv %d: %d elems", i, len(got))
				}
				for j := range got {
					want := value(i, j)
					if tc.codec != nil {
						want = tensor.BF16ToF32(tensor.F32ToBF16(want))
					}
					if math.Float32bits(got[j]) != math.Float32bits(want) {
						t.Fatalf("recv %d[%d] = %v, want %v", i, j, got[j], want)
					}
				}
				Release(got)
			}
			wg.Wait()
			if _, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight}, 100*time.Millisecond); err == nil {
				t.Fatal("a frame was delivered twice")
			}
			f := trs[0].CommStats().TotalFaults()
			if f.Retransmits == 0 || (f.Reconnects == 0) != (tc.chaos.ResetEvery == 0) {
				t.Errorf("chaos forced %d retransmissions and %d reconnections with ResetEvery=%d", f.Retransmits, f.Reconnects, tc.chaos.ResetEvery)
			}
			assertNoRetainedPayloads(t, trs)
		})
	}
}

// The writer hands everything a flush made ready to one writev, so frames
// queued while the link could not write cost far fewer kernel writes than
// frames: the byte stream coalesces them without any envelope.
func TestTCPFlushCoalescesQueuedFrames(t *testing.T) {
	trs := dialMeshOpts(t, 2, TCPOptions{})
	trs[0].Blackhole([]int{1}, 50*time.Millisecond)
	const n = 40
	for i := 0; i < n; i++ {
		if err := trs[0].Send(1, Tag{Kind: KindWeight, A: i}, []float32{float32(i), -float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight, A: i}, 10*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(got) != 2 || got[0] != float32(i) || got[1] != -float32(i) {
			t.Fatalf("recv %d: got %v", i, got)
		}
		Release(got)
	}
	if w := trs[0].CommStats().WireWrites(); w == 0 || w >= n {
		t.Fatalf("%d kernel writes for %d queued frames, want 0 < writes < %d", w, n, n)
	}
}

// A link declared closed with frames still queued must release each
// retained payload, sealed or not, exactly once.
func TestTCPCloseReleasesQueuedPayloads(t *testing.T) {
	trs := dialMeshOpts(t, 2, TCPOptions{})
	// A partition keeps the frames unacknowledged in the send queue.
	trs[0].Blackhole([]int{1}, time.Minute)
	for i := 0; i < 5; i++ {
		if err := trs[0].SendOwned(1, Tag{Kind: KindGrad, A: i}, GetBuf(4096)); err != nil {
			t.Fatal(err)
		}
	}
	l := trs[0].links[1]
	if got := len(linkFrames(l)); got != 5 {
		t.Fatalf("%d frames queued behind the partition, want 5", got)
	}
	trs[0].Close()
	for _, f := range linkFrames(l) {
		if f.payload != nil {
			t.Errorf("seq %d still holds its payload after Close", f.seq)
		}
	}
	if err := trs[0].SendOwned(1, Tag{Kind: KindGrad}, GetBuf(64)); err == nil {
		t.Error("send on a closed transport succeeded")
	}
}

func BenchmarkTCPChunk(b *testing.B) {
	const elems = 800_000 // the wide-* workloads' 3.2 MB belt chunk
	for _, bc := range []struct {
		name  string
		codec CodecFunc
	}{{"f32", nil}, {"bf16", BeltBF16}} {
		addrs, err := LoopbackAddrs(2)
		if err != nil {
			b.Fatal(err)
		}
		trs := make([]*TCPTransport, 2)
		var wg sync.WaitGroup
		for r := range trs {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if trs[r], err = DialTCPOpts(r, addrs, TCPOptions{Codec: bc.codec}); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
		if b.Failed() {
			return
		}
		tag := Tag{Kind: KindWeight}
		send := func(from, to int) {
			buf := GetBuf(elems)
			for i := 0; i < len(buf); i += 1024 {
				buf[i] = float32(i)
			}
			if err := trs[from].SendOwned(to, tag, buf); err != nil {
				b.Fatal(err)
			}
		}
		recv := func(at, from int) {
			got, err := trs[at].RecvTimeout(from, tag, 10*time.Second)
			if err != nil {
				b.Error(err) // not Fatal: the one-way drain runs on its own goroutine
			}
			Release(got)
		}
		// One-way: chunks stream 0 → 1 with a few in flight, the belt's
		// demand-paced pattern (Send never blocks, so an unpaced sender
		// would just queue all b.N chunks).
		b.Run("oneway/"+bc.name, func(b *testing.B) {
			b.SetBytes(4 * elems)
			b.ReportAllocs()
			window := make(chan struct{}, 4) // chunks sent and not yet received
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					recv(1, 0)
					<-window
				}
			}()
			for i := 0; i < b.N; i++ {
				window <- struct{}{}
				send(0, 1)
			}
			<-done
		})
		// Round trip: one chunk out, the same chunk back.
		b.Run("rtt/"+bc.name, func(b *testing.B) {
			b.SetBytes(2 * 4 * elems)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				send(0, 1)
				recv(1, 0)
				send(1, 0)
				recv(0, 1)
			}
		})
		for _, tr := range trs {
			tr.Close()
		}
	}
}

// BenchmarkBeltHop times the weight belt's unit of work at the wide-*
// workloads' 3.2 MB chunk: receive a chunk, share it, relay it onward, bind a
// module's tensors to it (the stage would compute here), unbind, release.
// Two ranks bounce one chunk, so an iteration is two hops. Over loopback the
// hop copies nothing in user space; in process it pays the one private copy
// at the rank boundary.
func BenchmarkBeltHop(b *testing.B) {
	const elems = 800_000
	// A block's worth of tensors covering the chunk, in wire order.
	module := nn.NewParamSet()
	for i, n := range []int{256, 65536, 65536, 65536, 65536, 256, 179114, 179115, 179115} {
		module.Add(string(rune('a'+i)), tensor.New(n))
	}
	if module.Size() != elems {
		b.Fatalf("module holds %d elements, want %d", module.Size(), elems)
	}
	tag := func(use int) Tag { return Tag{Kind: KindWeight, B: use} }
	run := func(b *testing.B, trs [2]Transport) {
		b.SetBytes(2 * 4 * elems)
		b.ReportAllocs()
		hop := func(at, use int) {
			chunk, err := trs[at].Recv(1-at, tag(use)) // as the belt does: a deadline would allocate its timer
			if err != nil {
				b.Fatal(err)
			}
			Retain(chunk)
			if err := SendOwned(trs[at], 1-at, tag(use+1), chunk); err != nil {
				b.Fatal(err)
			}
			module.Bind(chunk)
			module.Unbind()
			Release(chunk)
		}
		first := GetBuf(elems)
		clear(first)
		if err := SendOwned(trs[0], 1, tag(0), first); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hop(1, 2*i)
			hop(0, 2*i+1)
		}
		b.StopTimer()
		last, err := trs[1].RecvTimeout(0, tag(2*b.N), 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		Release(last)
	}
	b.Run("inproc", func(b *testing.B) {
		cl := NewCluster(2)
		defer cl.Close()
		run(b, [2]Transport{cl.Transport(0), cl.Transport(1)})
	})
	b.Run("tcp", func(b *testing.B) {
		addrs, err := LoopbackAddrs(2)
		if err != nil {
			b.Fatal(err)
		}
		var trs [2]Transport
		var errs [2]error
		var wg sync.WaitGroup
		for r := range trs {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				trs[r], errs[r] = DialTCPOpts(r, addrs, TCPOptions{})
			}(r)
		}
		wg.Wait()
		for _, tr := range trs {
			if tr != nil {
				defer tr.Close()
			}
		}
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		run(b, trs)
	})
}
