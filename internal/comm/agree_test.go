package comm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// testDeadlines is a uniformly-shrunk budget for loopback meshes: the
// failure detector fires in hundreds of milliseconds and the protocol
// deadlines keep their ordering (Retransmit < Heartbeat < PeerDead <
// AgreeRound < Barrier).
func testDeadlines() Deadlines {
	return Deadlines{
		Dial:       5 * time.Second,
		Heartbeat:  20 * time.Millisecond,
		PeerDead:   400 * time.Millisecond,
		Retransmit: 40 * time.Millisecond,
		AgreeRound: time.Second,
		Barrier:    2 * time.Second,
	}
}

// dialMeshOpts brings up an n-rank TCP mesh on loopback with options.
func dialMeshOpts(t *testing.T, n int, opts TCPOptions) []*TCPTransport {
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
			trs[r], errs[r] = DialTCPOpts(r, addrs, opts)
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
			if tr != nil {
				tr.Close()
			}
		}
	})
	return trs
}

func TestMembershipEvidenceRoundTrip(t *testing.T) {
	cases := []Evidence{
		{Epoch: 0, OldSize: 1, Round: 0, From: 0},
		{Epoch: 7, OldSize: 4, Round: 2, From: 3, Dead: []int{0, 2}},
		{Epoch: 1 << 31, OldSize: 256, Round: 255, From: 17, Dead: []int{0, 1, 2, 3, 250, 255}},
	}
	for _, ev := range cases {
		got, err := DecodeEvidence(EncodeEvidence(ev))
		if err != nil {
			t.Fatalf("decode %+v: %v", ev, err)
		}
		if got.Epoch != ev.Epoch || got.OldSize != ev.OldSize || got.Round != ev.Round ||
			got.From != ev.From || !reflect.DeepEqual(got.Dead, ev.Dead) {
			t.Fatalf("roundtrip %+v -> %+v", ev, got)
		}
	}
	long := EncodeEvidence(cases[1])
	bad := [][]float32{
		nil,
		long[:evidenceFixed-1],                // truncated header
		long[:evidenceFixed+1],                // truncated dead set
		append(slices.Clone(long), 0),         // trailing word
		withWord(long, 1, 0),                  // world size 0
		withWord(long, 1, maxEvidenceWorld+1), // world size past the bound
		withWord(long, 3, 4),                  // from-rank out of world
		withWord(long, 3, -1),                 // negative from-rank
		withWord(long, 4, 5),                  // dead count past the world
		withWord(long, 4, -1),                 // negative dead count
		withWord(long, evidenceFixed, 4),      // dead rank out of world
		withWord(long, evidenceFixed, -1),     // negative dead rank
		withWord(long, evidenceFixed, 2),      // {2, 2}: not strictly increasing
		withWord(long, evidenceFixed+1, 0),    // {0, 0}
	}
	unsorted := EncodeEvidence(Evidence{OldSize: 4, From: 0, Dead: []int{1, 2}})
	unsorted[evidenceFixed], unsorted[evidenceFixed+1] = unsorted[evidenceFixed+1], unsorted[evidenceFixed] // {2, 1}
	bad = append(bad, unsorted)
	for i, p := range bad {
		if _, err := DecodeEvidence(p); err == nil {
			t.Fatalf("bad input %d accepted", i)
		}
	}
}

// withWord returns a copy of p with word i set to the int v.
func withWord(p []float32, i, v int) []float32 {
	q := slices.Clone(p)
	q[i] = IntWord(v)
	return q
}

// Evidence and PackBytes (the checkpoint bytes a spare is seeded with) ride
// over float32 payloads; every bit pattern — including ones that alias
// NaNs — must survive a real TCP hop exactly.
func TestMembershipEvidencePackBytesTCP(t *testing.T) {
	trs := dialMeshOpts(t, 2, TCPOptions{Deadlines: testDeadlines()})
	msg := make([]byte, 0, 300)
	for i := 0; i < 256; i++ {
		msg = append(msg, byte(i))
	}
	// words that decode to sNaN/qNaN/Inf patterns on the f32 wire
	msg = append(msg, 0x01, 0x00, 0xC0, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x80, 0x7F, 0xAB)
	// an epoch whose word is a signalling NaN, another an infinity
	ev := Evidence{Epoch: 0x7F800001, OldSize: 2, Round: 1, From: 0, Dead: []int{1}}
	inf := Evidence{Epoch: 0xFF800000, OldSize: 2, From: 1}
	tag := Tag{Kind: KindCtl, A: agreeTagBase - 1}
	for i, p := range [][]float32{PackBytes(msg), EncodeEvidence(ev), EncodeEvidence(inf)} {
		if err := trs[0].Send(1, Tag{Kind: tag.Kind, A: tag.A, B: i}, p); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(i int) []float32 {
		pl, err := trs[1].RecvTimeout(0, Tag{Kind: tag.Kind, A: tag.A, B: i}, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { Release(pl) })
		return pl
	}
	pl := recv(0)
	got, err := UnpackBytes(pl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("packed bytes corrupted over TCP: %d vs %d bytes", len(got), len(msg))
	}
	for i, want := range []Evidence{ev, inf} {
		pl := recv(1 + i)
		if !math.IsNaN(float64(pl[0])) && !math.IsInf(float64(pl[0]), 0) {
			t.Fatalf("evidence %d: epoch word %#x is not the NaN/Inf pattern under test", i, math.Float32bits(pl[0]))
		}
		got, err := DecodeEvidence(pl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("evidence corrupted over TCP: %+v, want %+v", got, want)
		}
	}
}

// failureFabrics are the fabrics that honour the failure contract: a
// closed endpoint is a dead rank, every survivor's receives fail with
// *PeerDeadError naming it, and BeginRecovery reopens the survivors.
var failureFabrics = []struct {
	name string
	dial func(t *testing.T, n int, dl Deadlines) []Transport
}{
	{"inproc", func(t *testing.T, n int, _ Deadlines) []Transport {
		return NewCluster(n).Transports()
	}},
	{"tcp", func(t *testing.T, n int, dl Deadlines) []Transport {
		var out []Transport
		for _, tr := range dialMeshOpts(t, n, TCPOptions{Deadlines: dl}) {
			out = append(out, tr)
		}
		return out
	}},
}

// agreeAll runs AgreeOverTransport on the given ranks concurrently, each
// seeded with its own evidence.
func agreeAll(trs []Transport, ranks []int, evidence func(r int) []int, dl Deadlines) (map[int]Membership, map[int]error) {
	ms, errs := make(map[int]Membership), make(map[int]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, r := range ranks {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m, err := AgreeOverTransport(trs[r], evidence(r), AgreeConfig{Deadlines: dl})
			mu.Lock()
			ms[r], errs[r] = m, err
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	return ms, errs
}

// A rank killed mid-run: the survivors' receives fail with the typed
// evidence, BeginRecovery reopens the mailboxes, and transport-level
// agreement converges every survivor on the same dead set with quorum —
// on both fabrics.
func TestMembershipAgreePeerDeath(t *testing.T) {
	for _, fab := range failureFabrics {
		t.Run(fab.name, func(t *testing.T) {
			dl := testDeadlines()
			trs := fab.dial(t, 4, dl)

			// Rank 1 dies abruptly.
			go func() {
				time.Sleep(50 * time.Millisecond)
				trs[1].Close()
			}()

			survivors := []int{0, 2, 3}
			ms, errs := agreeAll(trs, survivors, func(r int) []int {
				// Parked in a receive the dead rank will never serve.
				_, err := trs[r].Recv(1, Tag{Kind: KindWeight, A: 99})
				dead, ok := DeadPeer(err)
				if !ok {
					t.Errorf("rank %d: receive from the dead rank failed with %v, want *PeerDeadError", r, err)
				}
				return append(trs[r].BeginRecovery(), dead)
			}, dl)
			for _, r := range survivors {
				if errs[r] != nil {
					t.Fatalf("rank %d agreement: %v", r, errs[r])
				}
				if want := []int{1}; !reflect.DeepEqual(ms[r].Dead, want) {
					t.Fatalf("rank %d dead set %v, want %v", r, ms[r].Dead, want)
				}
			}
		})
	}
}

// Every survivor ends on the sorted union of all survivors' evidence, even
// when each holds only part of it.
func TestAgreeOverTransportUnionsAndSorts(t *testing.T) {
	dl := testDeadlines()
	trs := NewCluster(5).Transports()
	trs[1].Close()
	trs[3].Close()
	partial := map[int][]int{0: {3, 1}, 2: {1}, 4: nil}
	ms, errs := agreeAll(trs, []int{0, 2, 4}, func(r int) []int { return partial[r] }, dl)
	for _, r := range []int{0, 2, 4} {
		m := ms[r]
		if errs[r] != nil {
			t.Fatalf("rank %d agreement: %v", r, errs[r])
		}
		if m.OldSize != 5 {
			t.Fatalf("rank %d OldSize = %d, want 5", r, m.OldSize)
		}
		if want := []int{1, 3}; !reflect.DeepEqual(m.Dead, want) {
			t.Fatalf("rank %d Dead = %v, want %v", r, m.Dead, want)
		}
		if want := []int{0, 2, 4}; !reflect.DeepEqual(m.Survivors(), want) {
			t.Fatalf("rank %d Survivors = %v, want %v", r, m.Survivors(), want)
		}
		if !m.IsDead(1) || !m.IsDead(3) || m.IsDead(0) || m.IsDead(2) {
			t.Fatalf("rank %d: IsDead disagrees with the dead set", r)
		}
	}
}

// Evidence outside [0, oldSize) is dropped: it names no rank of this world.
func TestAgreeOverTransportDiscardsOutOfRange(t *testing.T) {
	dl := testDeadlines()
	trs := NewCluster(3).Transports()
	trs[0].Close()
	ms, errs := agreeAll(trs, []int{1, 2}, func(int) []int { return []int{-1, 0, 3, 7} }, dl)
	for _, r := range []int{1, 2} {
		if errs[r] != nil {
			t.Fatalf("rank %d agreement: %v", r, errs[r])
		}
		if want := []int{0}; !reflect.DeepEqual(ms[r].Dead, want) {
			t.Fatalf("rank %d Dead = %v, want %v (out-of-range observations must be dropped)", r, ms[r].Dead, want)
		}
	}
}

// No evidence anywhere: nobody is dead and every rank survives.
func TestAgreeOverTransportEmptyEvidence(t *testing.T) {
	dl := testDeadlines()
	trs := NewCluster(4).Transports()
	all := []int{0, 1, 2, 3}
	ms, errs := agreeAll(trs, all, func(int) []int { return nil }, dl)
	for _, r := range all {
		if errs[r] != nil {
			t.Fatalf("rank %d agreement: %v", r, errs[r])
		}
		if len(ms[r].Dead) != 0 {
			t.Fatalf("rank %d Dead = %v, want empty", r, ms[r].Dead)
		}
		if !reflect.DeepEqual(ms[r].Survivors(), all) {
			t.Fatalf("rank %d Survivors = %v, want %v", r, ms[r].Survivors(), all)
		}
	}
}

func TestDeadPeerExtraction(t *testing.T) {
	wrapped := fmt.Errorf("iteration 3: %w", &PeerDeadError{Rank: 2})
	if r, ok := DeadPeer(wrapped); !ok || r != 2 {
		t.Fatalf("DeadPeer(wrapped PeerDeadError) = (%d, %v), want (2, true)", r, ok)
	}
	if _, ok := DeadPeer(errors.New("plain")); ok {
		t.Fatal("DeadPeer claimed a rank from an error that names none")
	}
	if _, ok := DeadPeer(ErrClosed); ok {
		t.Fatal("DeadPeer claimed a rank from ErrClosed")
	}
}

// The asymmetric detector case from the issue: rank 0 sees rank 2 dead
// (2's outbound path to 0 is partitioned) while rank 1 still reaches 2 in
// both directions. Evidence flooding spreads 0's condemnation to 1, the
// majority {0,1} converges and keeps quorum, and the fenced-off minority
// {2} ends with ErrNoQuorum — never two progressing segments.
func TestMembershipAgreeAsymmetricPartition(t *testing.T) {
	dl := testDeadlines()
	trs := dialMeshOpts(t, 3, TCPOptions{Deadlines: dl})

	// One-directional partition: everything rank 2 sends toward rank 0 is
	// dropped, including heartbeats and reconnect handshakes.
	trs[2].Blackhole([]int{0}, 30*time.Second)

	type result struct {
		m   Membership
		err error
	}
	results := make([]result, 3)
	detected := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := trs[0].Recv(2, Tag{Kind: KindWeight, A: 7})
		dead, ok := DeadPeer(err)
		if !ok {
			results[0].err = err
			close(detected)
			return
		}
		evidence := append(trs[0].BeginRecovery(), dead)
		close(detected)
		results[0].m, results[0].err = AgreeOverTransport(trs[0], evidence,
			AgreeConfig{Epoch: 0, Deadlines: dl})
	}()
	for _, r := range []int{1, 2} {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-detected // enter agreement once the failure is observed
			results[r].m, results[r].err = AgreeOverTransport(trs[r], trs[r].BeginRecovery(),
				AgreeConfig{Epoch: 0, Deadlines: dl})
		}(r)
	}
	wg.Wait()

	for _, r := range []int{0, 1} {
		if results[r].err != nil {
			t.Fatalf("rank %d agreement: %v", r, results[r].err)
		}
		if want := []int{2}; !reflect.DeepEqual(results[r].m.Dead, want) {
			t.Fatalf("rank %d dead set %v, want %v", r, results[r].m.Dead, want)
		}
	}
	if !errors.Is(results[2].err, ErrNoQuorum) {
		t.Fatalf("fenced-off rank 2: err %v, want ErrNoQuorum (dead set %v)",
			results[2].err, results[2].m.Dead)
	}
}

// A mesh bring-up between mismatched epochs must fail: the handshake is
// the first line of the split-brain fence.
func TestEpochFenceRejectsStaleHandshake(t *testing.T) {
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := TCPOptions{Deadlines: testDeadlines()}
	opts.Deadlines.Dial = 700 * time.Millisecond
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := opts
			o.Epoch = uint32(r) // mismatched incarnations
			tr, err := DialTCPOpts(r, addrs, o)
			if tr != nil {
				tr.Close()
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d connected across mismatched epochs", r)
		}
	}
}

// A connection that handshook at the right epoch but then emits frames
// from another incarnation: every frame is dropped (no delivery, no ack)
// and — critically — stale traffic does not count as liveness, so the
// zombie peer is still declared dead.
func TestEpochFenceRejectsStaleFrames(t *testing.T) {
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	dl := testDeadlines()
	opts := TCPOptions{Deadlines: dl}
	opts.Epoch = 7

	var tr *TCPTransport
	var dialErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr, dialErr = DialTCPOpts(0, addrs, opts)
	}()

	// The fake rank 1: correct handshake, then a steady stream of frames
	// stamped with a stale epoch.
	var conn net.Conn
	for i := 0; i < 200; i++ {
		conn, err = net.Dial("tcp", addrs[0])
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := make([]byte, 12)
	hello[0] = 1 // rank 1
	hello[4] = 7 // matching epoch
	hello[8] = 0 // data lane
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 12)
	if _, err := io.ReadFull(conn, ack); err != nil {
		t.Fatalf("admission ack: %v", err)
	}
	<-done
	if dialErr != nil {
		t.Fatal(dialErr)
	}
	defer tr.Close()

	stop := make(chan struct{})
	var zombie sync.WaitGroup
	zombie.Add(1)
	go func() {
		defer zombie.Done()
		seq := uint64(1)
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			frame := encodeFrame(1, kindField(KindCtl, CodecF32), 3, /* stale epoch */
				42, 0, seq, CodecF32, []float32{1})
			seq++
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	defer zombie.Wait()
	defer close(stop)

	// Stale frames must never be delivered...
	if _, err := tr.RecvTimeout(1, Tag{Kind: KindCtl, A: 42}, 150*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv of stale-epoch frame: %v, want timeout", err)
	}
	// ...and must not keep the zombie alive: the detector still fires.
	if _, err := tr.RecvTimeout(1, Tag{Kind: KindCtl, A: 42}, 4*dl.PeerDead); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("zombie peer kept alive by stale frames: %v, want ErrPeerDead", err)
	}
	if got := tr.CommStats().Faults(1).StaleEpochs; got == 0 {
		t.Fatal("no stale-epoch frames recorded")
	}
}

// Satellite: Close during backoff-reconnect. Pending RecvTimeouts must
// fail exactly once each with a terminal error, and the transport must
// leak no goroutines — under -race this also hammers the mailbox
// close/reopen paths against concurrent redial machinery.
func TestRecvTimeoutCloseRaceDuringReconnect(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 8; iter++ {
		dl := testDeadlines()
		opts := TCPOptions{Deadlines: dl}
		opts.Chaos = &ChaosConfig{Seed: uint64(1000 + iter), ResetEvery: 4} // constant reconnect churn
		trs := dialMeshOpts(t, 2, opts)

		var wg sync.WaitGroup
		errC := make(chan error, 16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				_, err := trs[1].RecvTimeout(0, Tag{Kind: KindCtl, A: 7000 + g}, 10*time.Second)
				errC <- err
			}(g)
		}
		// Churn the link so Close lands mid-reconnect: a few sends force
		// resets (ResetEvery=4), then close the receiving side.
		for i := 0; i < 10; i++ {
			trs[0].Send(1, Tag{Kind: KindCtl, A: 6000}, []float32{float32(i)})
			time.Sleep(2 * time.Millisecond)
		}
		trs[1].Close()
		wg.Wait()
		close(errC)
		n := 0
		for err := range errC {
			n++
			if err == nil {
				t.Fatalf("iter %d: pending recv returned success after Close", iter)
			}
			if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrPeerDead) {
				t.Fatalf("iter %d: pending recv failed with %v, want ErrClosed/ErrPeerDead", iter, err)
			}
		}
		if n != 8 {
			t.Fatalf("iter %d: %d recv completions, want 8", iter, n)
		}
		trs[0].Close()
	}
	// All transport goroutines must drain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d -> %d\n%s", base, runtime.NumGoroutine(),
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// After BeginRecovery, receives naming the dead peer fail fast with typed
// evidence instead of burning a timeout, while queued pre-death messages
// are still drained — on both fabrics.
func TestBeginRecoveryDeadPeerRecvFailsFast(t *testing.T) {
	for _, fab := range failureFabrics {
		t.Run(fab.name, func(t *testing.T) {
			dl := testDeadlines()
			trs := fab.dial(t, 2, dl)
			tag := Tag{Kind: KindCtl, A: 5}
			if err := trs[1].Send(0, tag, []float32{42}); err != nil {
				t.Fatal(err)
			}
			// Wait until delivered, then kill rank 1.
			pl, err := trs[0].RecvTimeout(1, tag, 2*time.Second)
			if err != nil || pl[0] != 42 {
				t.Fatalf("pre-death recv: %v %v", pl, err)
			}
			if err := trs[1].Send(0, tag, []float32{43}); err != nil {
				t.Fatal(err)
			}
			pl, err = trs[0].RecvTimeout(1, tag, 2*time.Second)
			if err != nil || pl[0] != 43 {
				t.Fatalf("queued recv: %v %v", pl, err)
			}
			trs[1].Close()
			if _, err := trs[0].Recv(1, tag); !errors.Is(err, ErrPeerDead) {
				t.Fatalf("blocked recv after death: %v", err)
			}
			dead := trs[0].BeginRecovery()
			if !reflect.DeepEqual(dead, []int{1}) {
				t.Fatalf("BeginRecovery dead set %v", dead)
			}
			start := time.Now()
			_, err = trs[0].RecvTimeout(1, tag, 5*time.Second)
			if !errors.Is(err, ErrPeerDead) {
				t.Fatalf("post-recovery recv from dead peer: %v", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("post-recovery recv from dead peer burned %v instead of failing fast", d)
			}
			if err := trs[0].Send(1, tag, []float32{44}); !errors.Is(err, ErrPeerDead) {
				t.Fatalf("post-recovery send to dead peer: %v", err)
			}
		})
	}
}
