package comm

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// dialMesh brings up an n-rank TCP mesh on loopback.
func dialMesh(t *testing.T, n int) []*TCPTransport {
	t.Helper()
	addrs, err := LoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*TCPTransport, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = DialTCP(r, addrs)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

func TestTCPSendRecv(t *testing.T) {
	trs := dialMesh(t, 3)
	go trs[0].Send(2, Tag{Kind: KindGrad, A: 1, B: 2}, []float32{1.5, -2.5})
	got, err := trs[2].Recv(0, Tag{Kind: KindGrad, A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1.5 || got[1] != -2.5 {
		t.Fatalf("got %v", got)
	}
}

func TestTCPEmptyPayload(t *testing.T) {
	trs := dialMesh(t, 2)
	trs[1].Send(0, Tag{Kind: KindCtl, A: 9}, nil)
	got, err := trs[0].Recv(1, Tag{Kind: KindCtl, A: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestTCPNegativeTagFields(t *testing.T) {
	trs := dialMesh(t, 2)
	trs[0].Send(1, Tag{Kind: KindColl, A: -3, B: -1}, []float32{4})
	got, err := trs[1].Recv(0, Tag{Kind: KindColl, A: -3, B: -1})
	if err != nil || got[0] != 4 {
		t.Fatalf("negative tags: %v %v", got, err)
	}
}

func TestTCPSelfSend(t *testing.T) {
	trs := dialMesh(t, 2)
	trs[1].Send(1, Tag{A: 4}, []float32{3})
	got, err := trs[1].Recv(1, Tag{A: 4})
	if err != nil || got[0] != 3 {
		t.Fatalf("self send: %v %v", got, err)
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	trs := dialMesh(t, 2)
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			trs[0].Send(1, Tag{Kind: KindAct}, []float32{float32(i)})
		}
	}()
	for i := 0; i < n; i++ {
		got, err := trs[1].Recv(0, Tag{Kind: KindAct})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float32(i) {
			t.Fatalf("order broken at %d: %v", i, got[0])
		}
	}
}

func TestTCPCollectivesWork(t *testing.T) {
	trs := dialMesh(t, 4)
	var wg sync.WaitGroup
	results := make([][]float32, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			data := []float32{float32(r), float32(r * 2), float32(r * 3), 1, 1}
			if err := RingAllReduceSum(trs[r], data, 11); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = data
		}(r)
	}
	wg.Wait()
	want := []float32{6, 12, 18, 4, 4}
	for r := 0; r < 4; r++ {
		for i := range want {
			if results[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, results[r][i], want[i])
			}
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	trs := dialMesh(t, 2)
	big := make([]float32, 1<<18) // 1 MiB
	for i := range big {
		big[i] = float32(i % 997)
	}
	go trs[0].Send(1, Tag{Kind: KindWeight, A: 7}, big)
	got, err := trs[1].Recv(0, Tag{Kind: KindWeight, A: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

// The hello's third word is reserved as zero. Earlier builds dialled a
// second, control-only connection per link with 1 there; admitting one now
// would install it over the live data connection.
func TestTCPHelloRefusesRetiredCtlLane(t *testing.T) {
	trs := dialMesh(t, 2)
	conn, err := net.Dial("tcp", trs[0].ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := trs[1].helloBytes()
	binary.LittleEndian.PutUint32(hello[8:12], 1)
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 12)); err != io.EOF {
		t.Fatalf("lane-1 hello: read %d bytes, err %v; want the connection closed without an admission ack", n, err)
	}
	if err := trs[1].Send(0, Tag{Kind: KindWeight}, []float32{4}); err != nil {
		t.Fatal(err)
	}
	if got, err := trs[0].RecvTimeout(1, Tag{Kind: KindWeight}, 5*time.Second); err != nil || got[0] != 4 {
		t.Fatalf("recv over the data connection after the refused hello: %v %v", got, err)
	}
	l := trs[0].links[1]
	l.mu.Lock()
	gen := l.gen
	l.mu.Unlock()
	if gen != 1 {
		t.Fatalf("data connection generation = %d after the refused hello, want 1 (not replaced)", gen)
	}
}
