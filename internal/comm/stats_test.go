package comm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// newStats is the in-package spelling of NewStats the resilience tests use.
func newStats() *Stats { return NewStats() }

// counterLeaves calls visit on every integer leaf of v, a counters value,
// with its path ("c.sentBytes[3]", "c.faults[1].DupFrames"). A positive
// peers first sizes each slice to that many entries.
func counterLeaves(t *testing.T, v reflect.Value, path string, peers int, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			counterLeaves(t, f, path+"."+v.Type().Field(i).Name, peers, visit)
		}
	case reflect.Slice:
		if peers > 0 {
			v.Set(reflect.MakeSlice(v.Type(), peers, peers))
		}
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			counterLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), peers, visit)
		}
	case reflect.Int, reflect.Int64:
		visit(path, v)
	default:
		t.Fatalf("%s: counters field of kind %s; teach counterLeaves and add about it", path, v.Kind())
	}
}

// TestStatsAddSumsEveryCounter fills every counter of two meters with
// distinct values and checks each one in their sum, so a field added to
// counters later is covered without editing this test.
func TestStatsAddSumsEveryCounter(t *testing.T) {
	a, b := NewStats(), NewStats()
	next := int64(1)
	fill := func(_ string, v reflect.Value) { v.SetInt(next); next++ }
	counterLeaves(t, reflect.ValueOf(&a.c).Elem(), "c", 3, fill)
	counterLeaves(t, reflect.ValueOf(&b.c).Elem(), "c", 2, fill)

	leaves := func(s *Stats) map[string]int64 {
		m := map[string]int64{}
		counterLeaves(t, reflect.ValueOf(&s.c).Elem(), "c", 0, func(p string, v reflect.Value) { m[p] = v.Int() })
		return m
	}
	av, bv := leaves(a), leaves(b)
	total := NewStats()
	total.Add(a)
	total.Add(b)
	got := leaves(total)
	if len(got) != len(av) {
		t.Fatalf("sum has %d counters, want %d (the larger peer table)", len(got), len(av))
	}
	for path, x := range av {
		y := bv[path]
		want := x + y
		switch path {
		case "c.maxInflight":
			want = max(x, y)
		case "c.groupSize":
			want = x // the first non-zero size
		case "c.inflight":
			want = 0 // a live gauge of one mailbox
		}
		if got[path] != want {
			t.Errorf("%s = %d after adding %d and %d, want %d", path, got[path], x, y, want)
		}
	}
}

// TestStatsStringGolden pins String's rendering of a scripted meter and of
// a sum: kinds ascending, peers ascending with all-zero peers skipped, then
// the tier, exposed and integrity blocks.
func TestStatsStringGolden(t *testing.T) {
	s := NewStats()
	s.SetGroupSize(2)
	s.recordPeer(0, 1, KindWeight, 100, 4)
	s.recordPeer(0, 2, KindGrad, 50, 2)
	s.recordPeer(0, 3, KindCtl, 3, 4)
	s.recordPeer(1, 0, KindAct, 0, 4)
	s.record(KindBuddy, 8, 4)
	s.recordRetransmit(3, 2)
	s.recordTimeout(1)
	s.recordReconnect(3)
	s.recordHeartbeatMiss(3)
	s.recordCorrupt(1)
	s.recordDup(3)
	s.recordStaleEpoch(1)
	s.recordWireWrite()
	s.recordWireWrite()
	s.noteRecvWait(1500 * time.Microsecond)
	s.noteInflight(4096)
	s.noteInflight(-1024)
	s.noteInflight(2048)
	s.RecordBeltStall(2*time.Millisecond + 400)
	s.RecordBeltStall(-time.Second)
	s.RecordIntegrityCheck(KindWeight, true)
	s.RecordIntegrityCheck(KindCtl, false)

	o := NewStats()
	o.recordPeer(1, 0, KindWeight, 10, 2)
	o.recordPeer(1, 0, KindActGrad, 7, 4)
	o.recordTimeout(0)
	o.recordDup(3)
	o.noteInflight(9000)
	o.RecordIntegrityCheck(KindGrad, true)
	total := NewStats()
	total.Add(s)
	total.Add(o)

	for _, c := range []struct {
		name string
		s    *Stats
		want string
	}{
		{"empty", NewStats(), ""},
		{"scripted", s, strings.Join([]string{
			"weights=400B/1 msgs weight-grads=100B/1 msgs activations=0B/1 msgs control=12B/1 msgs buddy=32B/1 msgs",
			"writes=2",
			"peer1[rtx=0 to=1 rc=0 hb=0 crc=1 dup=0 stale=1] peer3[rtx=2 to=0 rc=1 hb=1 crc=0 dup=1 stale=0]",
			"tiers[m=2 intra=400B/2 inter=100B/1] exposed[wait=1.5ms stall=2ms maxfly=5120B] integrity[checks=2 fails=1]",
		}, " ")},
		{"sum", total, strings.Join([]string{
			"weights=420B/2 msgs weight-grads=100B/1 msgs activations=0B/1 msgs act-grads=28B/1 msgs control=12B/1 msgs buddy=32B/1 msgs",
			"writes=2",
			"peer0[rtx=0 to=1 rc=0 hb=0 crc=0 dup=0 stale=0] peer1[rtx=0 to=1 rc=0 hb=0 crc=1 dup=0 stale=1] peer3[rtx=2 to=0 rc=1 hb=1 crc=0 dup=2 stale=0]",
			"tiers[m=2 intra=400B/2 inter=100B/1] exposed[wait=1.5ms stall=2ms maxfly=9000B] integrity[checks=3 fails=1]",
		}, " ")},
	} {
		if got := c.s.String(); got != c.want {
			t.Errorf("%s meter renders\n%q\nwant\n%q", c.name, got, c.want)
		}
	}
}

// TestStatsAddWhileRecording adds a meter into a total while other
// goroutines record on it, growing its peer table; run under -race it
// checks that Add reads only its own copy of the meter.
func TestStatsAddWhileRecording(t *testing.T) {
	s, total := NewStats(), NewStats()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				s.recordDup(g*200 + i)
				s.recordPeer(g, i%4, KindWeight, 1, 4)
			}
		}()
	}
	for range 50 {
		total.Add(s)
	}
	wg.Wait()
	if got := s.TotalFaults().DupFrames; got != 800 {
		t.Fatalf("%d duplicates recorded, want 800", got)
	}
}
