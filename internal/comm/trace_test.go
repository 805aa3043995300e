package comm

import (
	"sync"
	"testing"
	"time"

	"weipipe/internal/trace"
)

// TestInprocTraceSpans checks that an attached trace set observes tagged
// send and recv spans from both the copying and donating send paths.
func TestInprocTraceSpans(t *testing.T) {
	c := NewCluster(2)
	set := trace.NewSet(2, 64)
	c.AttachTrace(set)
	t0, t1 := c.Transport(0), c.Transport(1)

	if err := t0.Send(1, Tag{Kind: KindAct, A: 1}, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	owned := GetBuf(2)
	owned[0], owned[1] = 3, 4
	if err := t0.SendOwned(1, Tag{Kind: KindWeight, A: 2}, owned); err != nil {
		t.Fatal(err)
	}
	for _, tag := range []Tag{{Kind: KindAct, A: 1}, {Kind: KindWeight, A: 2}} {
		p, err := t1.Recv(0, tag)
		if err != nil {
			t.Fatal(err)
		}
		Release(p)
	}

	sends := map[Kind]bool{}
	recvs := map[Kind]bool{}
	for _, e := range set.Events() {
		switch e.Code {
		case trace.CodeSend:
			if e.Rank != 0 || e.B != 1 {
				t.Fatalf("send span from wrong endpoint: %+v", e)
			}
			sends[Kind(e.A)] = true
		case trace.CodeRecv:
			if e.Rank != 1 || e.B != 0 {
				t.Fatalf("recv span from wrong endpoint: %+v", e)
			}
			recvs[Kind(e.A)] = true
		}
	}
	for _, k := range []Kind{KindAct, KindWeight} {
		if !sends[k] {
			t.Fatalf("no send span for kind %d", k)
		}
		if !recvs[k] {
			t.Fatalf("no recv span for kind %d", k)
		}
	}

	// Detach: subsequent traffic must emit nothing new.
	n := len(set.Events())
	c.AttachTrace(nil)
	if err := t0.Send(1, Tag{Kind: KindCtl}, []float32{5}); err != nil {
		t.Fatal(err)
	}
	p, err := t1.Recv(0, Tag{Kind: KindCtl})
	if err != nil {
		t.Fatal(err)
	}
	Release(p)
	if got := len(set.Events()); got != n {
		t.Fatalf("detached cluster still traced: %d -> %d events", n, got)
	}
}

// TestTCPTraceSpans checks the mesh transport's per-rank tracer sees send
// and recv spans across a real socket pair.
func TestTCPTraceSpans(t *testing.T) {
	set := trace.NewSet(2, 256)
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]*TCPTransport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = DialTCPOpts(r, addrs, TCPOptions{
				DialTimeout: 5 * time.Second,
				Trace:       set.Rank(r),
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()

	if err := ts[0].Send(1, Tag{Kind: KindGrad, A: 7}, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	p, err := ts[1].Recv(0, Tag{Kind: KindGrad, A: 7})
	if err != nil {
		t.Fatal(err)
	}
	Release(p)

	var sawSend, sawRecv bool
	for _, e := range set.Events() {
		if e.Code == trace.CodeSend && e.Rank == 0 && Kind(e.A) == KindGrad && e.B == 1 {
			sawSend = true
		}
		if e.Code == trace.CodeRecv && e.Rank == 1 && Kind(e.A) == KindGrad && e.B == 0 {
			sawRecv = true
		}
	}
	if !sawSend || !sawRecv {
		t.Fatalf("missing tcp spans: send=%v recv=%v", sawSend, sawRecv)
	}
}
