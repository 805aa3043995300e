package comm

import (
	"sync"
	"testing"
	"time"

	"weipipe/internal/tensor"
)

func TestSendOwnedInprocZeroCopy(t *testing.T) {
	// Donation on the in-process fabric must hand the receiver the very
	// buffer the sender gave up — no copy on the hot path.
	cl := NewCluster(2)
	defer cl.Close()
	payload := GetBuf(128)
	for i := range payload {
		payload[i] = float32(i)
	}
	donated := &payload[0]
	if err := cl.Transport(0).SendOwned(1, Tag{Kind: KindGrad, A: 1, B: 2}, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Transport(1).Recv(0, Tag{Kind: KindGrad, A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != donated {
		t.Error("SendOwned copied the payload on the in-process fabric")
	}
	for i := range got {
		if got[i] != float32(i) {
			t.Fatalf("element %d = %v, want %v", i, got[i], float32(i))
		}
	}
	Release(got)
}

func TestSendOwnedInvalidRankReleases(t *testing.T) {
	cl := NewCluster(2)
	defer cl.Close()
	// Ownership transfers even on the error path: the call must not panic
	// and the caller must not need to Release.
	if err := cl.Transport(0).SendOwned(7, Tag{Kind: KindGrad}, GetBuf(64)); err == nil {
		t.Fatal("send to invalid rank succeeded")
	}
}

// Wrappers pass donation through: a buffer donated or relayed through a
// group view, or a fault injector with nothing scheduled, reaches the
// receiver as the very buffer the sender gave up, as from a bare endpoint.
func TestWrappedSendOwnedZeroCopy(t *testing.T) {
	cl := NewCluster(2)
	defer cl.Close()
	g0, err := NewGroup(cl.Transport(0), []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := NewGroup(cl.Transport(1), []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name   string
		tx, rx Transport
	}{
		{"group", g0, g1},
		{"fault transport", NewFaultTransport(cl.Transport(0), FaultConfig{}), cl.Transport(1)},
	} {
		for i, send := range []func(Transport, int, Tag, []float32) error{Transport.SendOwned, Transport.Forward} {
			tag := Tag{Kind: KindWeight, A: i}
			payload := GetBuf(128)
			donated := &payload[0]
			if err := send(w.tx, 1, tag, payload); err != nil {
				t.Fatal(err)
			}
			got, err := w.rx.Recv(0, tag)
			if err != nil {
				t.Fatal(err)
			}
			if &got[0] != donated {
				t.Errorf("%s: send %d delivered a copy, not the donated buffer", w.name, i)
			}
			Release(got)
		}
	}
}

func TestBF16CodecInproc(t *testing.T) {
	// BeltBF16 rounds belt kinds into the bf16 value domain and accounts
	// 2 bytes/elem, while control kinds pass through in full precision.
	cl := NewClusterCodec(2, BeltBF16)
	defer cl.Close()
	vals := []float32{1.0, 3.14159265, -2.718281828, 1e-20, 65504}
	if err := cl.Transport(0).Send(1, Tag{Kind: KindWeight, A: 1}, vals); err != nil {
		t.Fatal(err)
	}
	if err := cl.Transport(0).Send(1, Tag{Kind: KindCtl, A: 1}, vals); err != nil {
		t.Fatal(err)
	}
	w, err := cl.Transport(1).Recv(0, Tag{Kind: KindWeight, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		want := tensor.BF16ToF32(tensor.F32ToBF16(v))
		if w[i] != want {
			t.Errorf("weight[%d] = %v, want bf16-rounded %v", i, w[i], want)
		}
	}
	c, err := cl.Transport(1).Recv(0, Tag{Kind: KindCtl, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if c[i] != v {
			t.Errorf("ctl[%d] = %v, want exact %v", i, c[i], v)
		}
	}
	Release(w)
	Release(c)
	// Wire accounting: 5 elems × 2 bytes for the belt kind, ×4 for ctl.
	if got := cl.Stats(0).SentBytes(KindWeight); got != 10 {
		t.Errorf("bf16 weight bytes = %d, want 10", got)
	}
	if got := cl.Stats(0).SentBytes(KindCtl); got != 20 {
		t.Errorf("f32 ctl bytes = %d, want 20", got)
	}
}

func TestBF16CodecTCPRoundTrip(t *testing.T) {
	// The TCP frame codec: bf16 payloads travel at 2 bytes/elem, survive
	// CRC validation, and decode to the rounded values the inproc fabric
	// emulates.
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := TCPOptions{DialTimeout: 10 * time.Second, Codec: BeltBF16}
	trs := make([]Transport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = DialTCPOpts(r, addrs, opts)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()

	vals := []float32{1.0, 3.14159265, -2.718281828, 0.1, -0.0001}
	if err := trs[0].Send(1, Tag{Kind: KindWeight, A: 3, B: 4}, vals); err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Send(1, Tag{Kind: KindCtl, A: 3, B: 4}, vals); err != nil {
		t.Fatal(err)
	}
	w, err := trs[1].Recv(0, Tag{Kind: KindWeight, A: 3, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		want := tensor.BF16ToF32(tensor.F32ToBF16(v))
		if w[i] != want {
			t.Errorf("weight[%d] = %v, want bf16-rounded %v", i, w[i], want)
		}
	}
	c, err := trs[1].Recv(0, Tag{Kind: KindCtl, A: 3, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if c[i] != v {
			t.Errorf("ctl[%d] = %v, want exact %v", i, c[i], v)
		}
	}
	Release(w)
	Release(c)
	if got := trs[0].CommStats().SentBytes(KindWeight); got != 10 {
		t.Errorf("bf16 weight bytes = %d, want 10", got)
	}
}

func TestSendOwnedTCPRoundTrip(t *testing.T) {
	// Donation over TCP: the sender-side buffer is consumed by the link's
	// lazy encoder; the receiver sees the values.
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := TCPOptions{DialTimeout: 10 * time.Second}
	trs := make([]Transport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = DialTCPOpts(r, addrs, opts)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()

	payload := GetBuf(100)
	for i := range payload {
		payload[i] = float32(i) * 0.5
	}
	if err := trs[0].SendOwned(1, Tag{Kind: KindGrad, A: 8}, payload); err != nil {
		t.Fatal(err)
	}
	// Self-send donation is delivered locally without a wire trip.
	self := GetBuf(10)
	for i := range self {
		self[i] = 7
	}
	if err := trs[0].SendOwned(0, Tag{Kind: KindGrad, A: 9}, self); err != nil {
		t.Fatal(err)
	}
	got, err := trs[1].Recv(0, Tag{Kind: KindGrad, A: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != float32(i)*0.5 {
			t.Fatalf("element %d = %v, want %v", i, got[i], float32(i)*0.5)
		}
	}
	Release(got)
	loop, err := trs[0].Recv(0, Tag{Kind: KindGrad, A: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range loop {
		if loop[i] != 7 {
			t.Fatalf("self-send element %d = %v, want 7", i, loop[i])
		}
	}
	Release(loop)
}

func TestGroupSendOwnedZeroCopy(t *testing.T) {
	// A group over an in-process parent keeps the donation zero-copy and
	// applies the tag salt (the sibling group must not see the message).
	cl := NewCluster(4)
	defer cl.Close()
	g02, err := NewGroup(cl.Transport(0), []int{0, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g02r, err := NewGroup(cl.Transport(2), []int{0, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := GetBuf(64)
	for i := range payload {
		payload[i] = 1
	}
	donated := &payload[0]
	if err := g02.SendOwned(1, Tag{Kind: KindWeight, A: 5}, payload); err != nil {
		t.Fatal(err)
	}
	got, err := g02r.Recv(0, Tag{Kind: KindWeight, A: 5})
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != donated {
		t.Error("group donation copied the payload over an in-process parent")
	}
	Release(got)
}
