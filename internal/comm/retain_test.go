package comm

import (
	"math"
	"sync"
	"testing"
	"time"

	"weipipe/internal/tensor"
)

// poisonPool arms the pool's test hook for one test: a buffer is NaN-filled
// at its last Release, and releasing it again panics.
func poisonPool(t *testing.T) {
	t.Helper()
	SetBufPoison(true)
	t.Cleanup(func() { SetBufPoison(false) })
}

func isPoisoned(buf []float32) bool {
	return len(buf) > 0 && math.IsNaN(float64(buf[0])) && math.IsNaN(float64(buf[len(buf)-1]))
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// Each Retain adds one reference, each Release drops one, and only the last
// files the buffer.
func TestRetainReleaseCounts(t *testing.T) {
	poisonPool(t)
	for _, n := range []int{8, 4096} { // below and above the smallest pooled class
		buf := GetBuf(n)
		for i := range buf {
			buf[i] = 1
		}
		Retain(buf)
		Retain(buf)
		if got := SharedBufs(); got != 1 {
			t.Fatalf("n=%d: %d shared buffers after two Retains of one buffer, want 1", n, got)
		}
		Release(buf)
		if isPoisoned(buf) || SharedBufs() != 1 {
			t.Fatalf("n=%d: first of three references filed the buffer", n)
		}
		Release(buf)
		if isPoisoned(buf) {
			t.Fatalf("n=%d: second of three references filed the buffer", n)
		}
		if got := SharedBufs(); got != 0 {
			t.Fatalf("n=%d: buffer down to one reference is still listed as shared (%d)", n, got)
		}
		Release(buf)
		if n >= bufMinLen && !isPoisoned(buf) {
			t.Fatalf("n=%d: last reference did not file (and poison) the buffer", n)
		}
	}
	Retain(nil) // harmless
	Release(nil)
}

// Under the hook a buffer with no live reference cannot be released or
// retained: the pool refuses to file it twice.
func TestReleaseWithoutReferencePanics(t *testing.T) {
	poisonPool(t)
	buf := GetBuf(256)
	Release(buf)
	mustPanic(t, "double Release", func() { Release(buf) })
	mustPanic(t, "Retain after Release", func() { Retain(buf) })

	// A shared buffer released once too often files early; the holder that
	// is still entitled to its reference then trips the check.
	buf = GetBuf(1024) // another size class: not the buffer filed above
	Retain(buf)
	Release(buf)
	Release(buf)
	mustPanic(t, "third Release of a twice-referenced buffer", func() { Release(buf) })
}

// The link writer and the compute thread give their references back from
// different goroutines, in either order; exactly one of them files.
func TestRetainConcurrentRelease(t *testing.T) {
	poisonPool(t)
	for i := 0; i < 500; i++ {
		buf := GetBuf(512)
		for j := range buf {
			buf[j] = float32(i)
		}
		Retain(buf)
		var sum [2]float32
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, v := range buf { // both holders read, neither writes
					sum[g] += v
				}
				Release(buf)
			}(g)
		}
		wg.Wait()
		if sum[0] != sum[1] || sum[0] != float32(i)*512 {
			t.Fatalf("round %d: holders read %v and %v, want %v", i, sum[0], sum[1], float32(i)*512)
		}
		if !isPoisoned(buf) {
			t.Fatalf("round %d: neither release filed the buffer", i)
		}
	}
	if got := SharedBufs(); got != 0 {
		t.Fatalf("%d buffers still shared", got)
	}
}

// In process, a buffer its sender still shares arrives as a private copy:
// the sender keeps reading its own, the receiver owns (and may write) what
// it took, and ranks never alias each other's memory. On a lossy codec the
// copy, not the sender's view, is what gets rounded.
func TestSendOwnedSharedInprocDeliversPrivateCopy(t *testing.T) {
	poisonPool(t)
	cl := NewClusterCodec(2, BeltBF16)
	defer cl.Close()
	tag := Tag{Kind: KindWeight, A: 1, B: 2}
	const v = 1.00390625 // 1 + 2⁻⁸: not a bf16 value
	payload := GetBuf(128)
	for i := range payload {
		payload[i] = v
	}
	Retain(payload)
	if err := cl.Transport(0).SendOwned(1, tag, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Transport(1).Recv(0, tag)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] == &payload[0] {
		t.Fatal("a shared payload was delivered without a copy: sender and receiver alias")
	}
	if SharedBufs() != 0 {
		t.Fatal("the send did not take its reference")
	}
	for i := range got {
		if want := tensor.BF16ToF32(tensor.F32ToBF16(v)); got[i] != want {
			t.Fatalf("received[%d] = %v, want the bf16-rounded %v", i, got[i], want)
		}
		got[i] = -1 // the receiver owns its copy
	}
	Release(got)
	for i := range payload {
		if payload[i] != v {
			t.Fatalf("sender's view[%d] = %v after the send, want %v untouched", i, payload[i], float32(v))
		}
	}
	Release(payload)
}

// A TCP self-send hands the buffer to the local mailbox, so it copies a
// shared payload exactly as the in-process fabric does.
func TestSendOwnedSharedTCPSelfSendCopies(t *testing.T) {
	trs := dialMeshOpts(t, 2, TCPOptions{})
	tag := Tag{Kind: KindWeight, A: 9}
	payload := GetBuf(256)
	for i := range payload {
		payload[i] = 7
	}
	Retain(payload)
	if err := trs[0].SendOwned(0, tag, payload); err != nil {
		t.Fatal(err)
	}
	got, err := trs[0].RecvTimeout(0, tag, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] == &payload[0] {
		t.Fatal("self-send delivered a shared payload without a copy")
	}
	Release(got)
	Release(payload)
}

// The belt's TCP hop: every frame's payload is shared with a holder that
// keeps reading it while the link sends — and, under chaos, re-sends — it.
// Streams must arrive exactly once, in order and bit-identical, in f32 and
// bf16, and every reference must be back afterwards.
func TestTCPChaosRetransmitsSharedPayload(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec CodecFunc
	}{{"f32", nil}, {"bf16", BeltBF16}} {
		t.Run(tc.name, func(t *testing.T) {
			poisonPool(t)
			trs := dialMeshOpts(t, 2, TCPOptions{
				Deadlines: Deadlines{Dial: 5 * time.Second, Heartbeat: 25 * time.Millisecond, Retransmit: 40 * time.Millisecond},
				Codec:     tc.codec,
				Chaos:     &ChaosConfig{Seed: 11, Drop: 0.15, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1, ResetEvery: 13},
			})
			const n, elems = 120, 777
			value := func(i, j int) float32 { return float32(i) + float32(j)/1024 }
			held := make(chan []float32, n)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					buf := GetBuf(elems)
					for j := range buf {
						buf[j] = value(i, j)
					}
					Retain(buf)
					if err := trs[0].SendOwned(1, Tag{Kind: KindWeight}, buf); err != nil {
						t.Errorf("send %d: %v", i, err)
						Release(buf)
						return
					}
					held <- buf
				}
			}()
			for i := 0; i < n; i++ {
				got, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight}, 20*time.Second)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				// The sender's view is intact while (and after) the link
				// transmits it: nobody wrote the shared buffer.
				mine := <-held
				for j := range got {
					want := value(i, j)
					if mine[j] != want {
						t.Fatalf("sender's view %d[%d] = %v, want %v", i, j, mine[j], want)
					}
					if tc.codec != nil {
						want = tensor.BF16ToF32(tensor.F32ToBF16(want))
					}
					if math.Float32bits(got[j]) != math.Float32bits(want) {
						t.Fatalf("recv %d[%d] = %v, want %v", i, j, got[j], want)
					}
				}
				Release(mine)
				Release(got)
			}
			wg.Wait()
			if _, err := trs[1].RecvTimeout(0, Tag{Kind: KindWeight}, 100*time.Millisecond); err == nil {
				t.Fatal("a frame was delivered twice")
			}
			f := trs[0].CommStats().TotalFaults()
			if f.Retransmits == 0 || f.Reconnects == 0 {
				t.Errorf("chaos never forced a retransmission (%d) or a reconnection (%d)", f.Retransmits, f.Reconnects)
			}
			assertNoRetainedPayloads(t, trs)
			if got := SharedBufs(); got != 0 {
				t.Errorf("%d buffers still shared after Flush+Close", got)
			}
		})
	}
}

// A link that closes, or whose peer dies, with shared frames still queued
// gives back exactly the link's reference to each: the holder's own Release
// is then the last, and one more would be one too many.
func TestTCPShutdownReleasesSharedPayloadsOnce(t *testing.T) {
	for _, how := range []string{"close", "peer-death"} {
		t.Run(how, func(t *testing.T) {
			poisonPool(t)
			trs := dialMeshOpts(t, 2, TCPOptions{
				Deadlines: Deadlines{Heartbeat: 20 * time.Millisecond, PeerDead: 200 * time.Millisecond},
			})
			// A partition keeps the frames unacknowledged in the send queue.
			trs[0].Blackhole([]int{1}, time.Minute)
			var mine [][]float32
			for i := 0; i < 5; i++ {
				buf := GetBuf(4096)
				for j := range buf {
					buf[j] = float32(i)
				}
				Retain(buf)
				if err := trs[0].SendOwned(1, Tag{Kind: KindWeight, A: i}, buf); err != nil {
					t.Fatal(err)
				}
				mine = append(mine, buf)
			}
			if got := SharedBufs(); got != 5 {
				t.Fatalf("%d buffers shared behind the partition, want 5", got)
			}
			if how == "close" {
				trs[0].Close()
			} else {
				// Silence from the partitioned peer trips the failure
				// detector, which fails the link and drains its queue.
				if _, err := trs[0].RecvTimeout(1, Tag{Kind: KindCtl}, 10*time.Second); err == nil {
					t.Fatal("receive from a dead peer succeeded")
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for SharedBufs() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d buffers still shared after %s", SharedBufs(), how)
				}
				time.Sleep(5 * time.Millisecond)
			}
			for i, buf := range mine {
				if buf[0] != float32(i) || isPoisoned(buf) {
					t.Fatalf("buffer %d was filed while its holder still had a reference", i)
				}
				Release(buf) // the last reference: files without complaint
				if !isPoisoned(buf) {
					t.Fatalf("buffer %d: the holder's release was not the last", i)
				}
			}
		})
	}
}

// AwaitSole returns once the caller holds the only reference: after every
// other holder's Release, after the peer acknowledges a frame the buffer
// went out in, and after a link whose peer died gives back the frames it
// still queued. An unshared buffer does not wait.
func TestAwaitSoleWaitsForEveryHolder(t *testing.T) {
	poisonPool(t)
	buf := GetBuf(4096)
	AwaitSole(buf)
	Retain(buf)
	Retain(buf)
	for i := 0; i < 2; i++ {
		go func() {
			time.Sleep(time.Duration(10*(i+1)) * time.Millisecond)
			Release(buf)
		}()
	}
	AwaitSole(buf)
	if shared.isShared(buf) {
		t.Fatal("AwaitSole returned while another holder still had the buffer")
	}
	for _, how := range []string{"acknowledged", "peer-death"} {
		trs := dialMeshOpts(t, 2, TCPOptions{
			Deadlines: Deadlines{Heartbeat: 20 * time.Millisecond, PeerDead: 200 * time.Millisecond},
		})
		if how == "peer-death" {
			trs[0].Blackhole([]int{1}, time.Minute)
		}
		Retain(buf)
		if err := trs[0].Forward(1, Tag{Kind: KindWeight, A: 1}, buf); err != nil {
			t.Fatal(err)
		}
		done := make(chan bool)
		go func() { AwaitSole(buf); done <- shared.isShared(buf) }()
		select {
		case still := <-done:
			if still {
				t.Fatalf("%s: AwaitSole returned while the link held the buffer", how)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: AwaitSole still waits on the link's reference", how)
		}
		for _, tr := range trs {
			tr.Close()
		}
	}
	Release(buf)
}
