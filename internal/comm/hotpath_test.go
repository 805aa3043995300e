package comm

import "testing"

// TestBeltHotPathZeroAlloc pins the allocation count of the belt's per-chunk
// transport cycles on the in-process fabric. A gradient hop donates its
// buffer: GetBuf → SendOwned → Recv → Release. A weight hop shares it with
// the stage that computes out of it: Retain → SendOwned (which delivers a
// private copy and drops the sender's reference) → Recv → Release, plus the
// holder's own Release. Both run once per chunk use per rank per iteration
// with multi-megabyte payloads, so a single allocation here turns into
// steady GC pressure under training. With a warmed buffer pool, mailbox
// freelist and reference table neither may allocate at all.
func TestBeltHotPathZeroAlloc(t *testing.T) {
	c := NewCluster(2)
	defer c.Close()
	sender, ok := c.Transport(0).(OwnedSender)
	if !ok {
		t.Fatal("inproc transport must implement OwnedSender")
	}
	recv := c.Transport(1)
	tag := Tag{Kind: KindWeight, A: 1, B: 7}
	const n = 4096

	for _, tc := range []struct {
		name   string
		shared bool
	}{{"donated", false}, {"shared", true}} {
		cycle := func() {
			buf := GetBuf(n)
			if tc.shared {
				Retain(buf)
			}
			if err := sender.SendOwned(1, tag, buf); err != nil {
				t.Fatalf("SendOwned: %v", err)
			}
			payload, err := recv.Recv(0, tag)
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			Release(payload)
			if tc.shared {
				Release(buf)
			}
		}
		if tc.shared && LossyPool() {
			// Two buffers a cycle from a pool that discards a quarter of
			// what it is given: more than the rounding of AllocsPerRun hides.
			continue
		}
		for i := 0; i < 8; i++ {
			cycle() // warm the pools, the mailbox queue freelist and the reference table
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
			t.Errorf("%s belt hop allocates %.1f times per cycle, want 0", tc.name, allocs)
		}
	}
}
