package comm

import (
	"sync"
	"testing"
)

func TestGroupRankMapping(t *testing.T) {
	cl := NewCluster(6)
	g, err := NewGroup(cl.Transport(4), []int{2, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rank() != 1 || g.Size() != 2 {
		t.Fatalf("rank/size = %d/%d", g.Rank(), g.Size())
	}
}

func TestGroupSendRecvAcrossMapping(t *testing.T) {
	cl := NewCluster(4)
	gA, _ := NewGroup(cl.Transport(1), []int{1, 3}, 5)
	gB, _ := NewGroup(cl.Transport(3), []int{1, 3}, 5)
	if err := gA.Send(1, Tag{Kind: KindGrad, A: 9}, []float32{7}); err != nil {
		t.Fatal(err)
	}
	got, err := gB.Recv(0, Tag{Kind: KindGrad, A: 9})
	if err != nil || got[0] != 7 {
		t.Fatalf("recv: %v %v", got, err)
	}
	// invalid group ranks rejected
	if err := gA.Send(2, Tag{}, nil); err == nil {
		t.Fatal("send to rank beyond group size accepted")
	}
	if _, err := gB.Recv(-1, Tag{}); err == nil {
		t.Fatal("recv from negative rank accepted")
	}
}

// TestGroupForwardsWireCodec: a group's payloads travel on the parent's
// links, so it reports the parent's codec, salted tag and all — and f32 over
// a parent that names no codec.
func TestGroupForwardsWireCodec(t *testing.T) {
	policy := func(tag Tag) WireCodec {
		if tag.Kind == KindWeight && tag.B == 7^5<<55 { // the salted tag, not the raw one
			return CodecBF16
		}
		return CodecF32
	}
	g, _ := NewGroup(NewClusterCodec(2, policy).Transport(0), []int{0, 1}, 5)
	if got := g.WireCodec(Tag{Kind: KindWeight, B: 7}); got != CodecBF16 {
		t.Fatalf("weight tag through the group: codec %v, want the parent's bf16", got)
	}
	if got := g.WireCodec(Tag{Kind: KindCtl, B: 7}); got != CodecF32 {
		t.Fatalf("ctl tag through the group: codec %v, want f32", got)
	}
	plain, _ := NewGroup(NewCluster(2).Transport(0), []int{0, 1}, 5)
	if got := plain.WireCodec(Tag{Kind: KindWeight}); got != CodecF32 {
		t.Fatalf("group over an f32 parent: codec %v", got)
	}
}

func TestGroupCollectivesWork(t *testing.T) {
	// A ring all-reduce inside a group must only involve the group.
	cl := NewCluster(4)
	ranks := []int{0, 2}
	results := make([][]float32, 2)
	var wg sync.WaitGroup
	for i, parent := range ranks {
		wg.Add(1)
		go func(i, parent int) {
			defer wg.Done()
			g, err := NewGroup(cl.Transport(parent), ranks, 9)
			if err != nil {
				t.Error(err)
				return
			}
			data := []float32{float32(i + 1), 10}
			if err := RingAllReduceSum(g, data, 1); err != nil {
				t.Error(err)
				return
			}
			results[i] = data
		}(i, parent)
	}
	wg.Wait()
	for i := range results {
		if results[i][0] != 3 || results[i][1] != 20 {
			t.Fatalf("member %d: %v", i, results[i])
		}
	}
}

// TestSubRingPartitionMatchesDirectSums is the nested-comm-group property
// test: partition a ring into contiguous groups of m, run ring collectives
// inside every group concurrently, and require each member's result to
// equal the directly-computed reduction over exactly its group's inputs —
// no leakage between sub-rings sharing the parent fabric.
func TestSubRingPartitionMatchesDirectSums(t *testing.T) {
	const p = 8
	val := func(rank, j int) float32 { return float32((rank+1)*100 + j) }
	for _, m := range []int{2, 4, 8} {
		cl := NewCluster(p)
		results := make([][]float32, p)
		gathered := make([][]float32, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				g := r / m
				ranks := make([]int, m)
				for i := range ranks {
					ranks[i] = g*m + i
				}
				grp, err := NewGroup(cl.Transport(r), ranks, 10+g)
				if err != nil {
					t.Error(err)
					return
				}
				data := []float32{val(r, 0), val(r, 1), val(r, 2)}
				if err := RingAllReduceSum(grp, data, 1); err != nil {
					t.Error(err)
					return
				}
				results[r] = data
				mine := []float32{val(r, 7)}
				lens := make([]int, m)
				for i := range lens {
					lens[i] = 1
				}
				all, err := AllGather(grp, mine, lens, 2)
				if err != nil {
					t.Error(err)
					return
				}
				gathered[r] = all
			}(r)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for r := 0; r < p; r++ {
			g := r / m
			for j := 0; j < 3; j++ {
				var want float32
				for i := 0; i < m; i++ {
					want += val(g*m+i, j)
				}
				if results[r][j] != want {
					t.Fatalf("m=%d rank %d elem %d: got %v want %v", m, r, j, results[r][j], want)
				}
			}
			for i := 0; i < m; i++ {
				owner := g*m + (i-1+m)%m // slot ShardOf(local rank, m)
				if gathered[r][i] != val(owner, 7) {
					t.Fatalf("m=%d rank %d gather slot %d: got %v want %v",
						m, r, i, gathered[r][i], val(owner, 7))
				}
			}
		}
		cl.Close()
	}
}

// TestSubRingFullCoverMatchesWholeRing requires a group covering every rank
// to reproduce the parent-transport collective bit for bit: the group seam
// only remaps ranks and salts tags, never changes reduction order.
func TestSubRingFullCoverMatchesWholeRing(t *testing.T) {
	const p = 4
	input := func(r, j int) float32 { return float32(r)*1.5 + float32(j)*0.25 }
	run := func(useGroup bool) [][]float32 {
		cl := NewCluster(p)
		defer cl.Close()
		out := make([][]float32, p)
		ranks := []int{0, 1, 2, 3}
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var tr Transport = cl.Transport(r)
				if useGroup {
					g, err := NewGroup(tr, ranks, 7)
					if err != nil {
						t.Error(err)
						return
					}
					tr = g
				}
				data := make([]float32, 5)
				for j := range data {
					data[j] = input(r, j)
				}
				if err := RingAllReduceSum(tr, data, 1); err != nil {
					t.Error(err)
					return
				}
				out[r] = data
			}(r)
		}
		wg.Wait()
		return out
	}
	direct := run(false)
	grouped := run(true)
	if t.Failed() {
		t.FailNow()
	}
	for r := 0; r < p; r++ {
		for j := range direct[r] {
			if direct[r][j] != grouped[r][j] {
				t.Fatalf("rank %d elem %d: parent %v vs full-cover group %v",
					r, j, direct[r][j], grouped[r][j])
			}
		}
	}
}

func TestGroupCloseIsNoop(t *testing.T) {
	cl := NewCluster(2)
	g, _ := NewGroup(cl.Transport(0), []int{0, 1}, 1)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	// parent still usable
	if err := cl.Transport(0).Send(1, Tag{}, []float32{1}); err != nil {
		t.Fatal(err)
	}
}

func TestTagSaltDisjointFromParentTraffic(t *testing.T) {
	cl := NewCluster(2)
	parent0 := cl.Transport(0)
	parent1 := cl.Transport(1)
	g0, _ := NewGroup(parent0, []int{0, 1}, 1)
	g1, _ := NewGroup(parent1, []int{0, 1}, 1)

	tag := Tag{Kind: KindCtl, A: 4, B: 4}
	parent0.Send(1, tag, []float32{1}) // un-salted
	g0.Send(1, tag, []float32{2})      // salted
	gv, err := g1.Recv(0, tag)
	if err != nil || gv[0] != 2 {
		t.Fatalf("group recv got %v %v", gv, err)
	}
	pv, err := parent1.Recv(0, tag)
	if err != nil || pv[0] != 1 {
		t.Fatalf("parent recv got %v %v", pv, err)
	}
}
