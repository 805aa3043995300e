package pipeline

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/model"
	"weipipe/internal/order"
)

// rowRecorder records, per iteration of its rank's trainer, the weight and
// gradient messages the rank receives, and checks every weight message of
// the rank's owned chunk it sends: it must carry the master's own buffer.
type rowRecorder struct {
	comm.Transport
	t     *testing.T
	w     *WeiPipe
	mu    sync.Mutex
	recvs []beltSend // src, dst (this rank) and tag
	owned int        // weight messages of the owned chunk sent
}

func (r *rowRecorder) observe(src int, tag comm.Tag) {
	if tag.Kind == comm.KindWeight || tag.Kind == comm.KindGrad {
		r.mu.Lock()
		r.recvs = append(r.recvs, beltSend{src, r.Rank(), tag})
		r.mu.Unlock()
	}
}

func (r *rowRecorder) Recv(src int, tag comm.Tag) ([]float32, error) {
	r.observe(src, tag)
	return r.Transport.Recv(src, tag)
}

func (r *rowRecorder) RecvTimeout(src int, tag comm.Tag, timeout time.Duration) ([]float32, error) {
	r.observe(src, tag)
	return r.Transport.RecvTimeout(src, tag, timeout)
}

func (r *rowRecorder) sent(tag comm.Tag, payload []float32) {
	if tag.Kind != comm.KindWeight || tag.A != r.w.ownChunk {
		return
	}
	r.owned++
	if len(payload) == 0 || &payload[0] != &r.w.masterBuf[0] || &r.w.ownBelt[0] != &r.w.masterBuf[0] {
		r.t.Errorf("rank %d sent its chunk %d under %v from a copy of its master", r.Rank(), tag.A, tag)
	}
}

func (r *rowRecorder) SendOwned(dst int, tag comm.Tag, payload []float32) error {
	r.sent(tag, payload)
	return r.Transport.SendOwned(dst, tag, payload)
}

func (r *rowRecorder) Forward(dst int, tag comm.Tag, payload []float32) error {
	r.sent(tag, payload)
	return r.Transport.Forward(dst, tag, payload)
}

// TestOwnerForwardsItsMasterAndRowsMatchWiring runs wzb2 at p=4, n=8 for
// three iterations, in process and over TCP, with and without Integrity:
//   - every rank receives exactly order.Wiring's rows into it, each once an
//     iteration, by source and tag;
//   - rank 0 takes chunk 0's weights off the wire twice an iteration: once
//     in the iteration-start burst, for F0/0, whose copy serves F4/0 and
//     B0/0 in place of rank 3's early relay and the owner's injection, and
//     once for B4/0, which the owner relays from its own round-1 use;
//   - every weight message a rank sends of the chunk it owns — its
//     injections and the relays of its held uses — carries the buffer its
//     master weights live in, sealed for the iteration: the owner copies
//     its master into no payload.
func TestOwnerForwardsItsMasterAndRowsMatchWiring(t *testing.T) {
	const p, n, iters = 4, 8, 3
	rows, err := order.Wiring(string(StrategyWZB2), p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, overTCP := range []bool{false, true} {
		for _, integrity := range []bool{false, true} {
			t.Run(fmt.Sprintf("tcp=%v_integrity=%v", overTCP, integrity), func(t *testing.T) {
				var trs []comm.Transport
				if overTCP {
					trs = dialMesh(t, p, comm.TCPOptions{})
				} else {
					trs = comm.NewCluster(p).Transports()
				}
				opts := eqOpts()
				opts.Integrity = integrity
				recs := make([]*rowRecorder, p)
				trainers := make([]Trainer, p)
				for r := range trs {
					recs[r] = &rowRecorder{Transport: trs[r], t: t}
					tr, err := New(StrategyWZB2, recs[r], eqCfg(), opts)
					if err != nil {
						t.Fatal(err)
					}
					recs[r].w, trainers[r] = tr.(*WeiPipe), tr
				}
				batches := eqBatches(iters, n)
				fail := failFast(trs)
				var wg sync.WaitGroup
				for _, tr := range trainers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							if _, err := tr.TrainIteration(batches(i)); err != nil {
								t.Error(err)
								fail()
								return
							}
						}
					}()
				}
				wg.Wait()
				fail()
				for r, rec := range recs {
					want, got := make(map[beltSend]int), make(map[beltSend]int)
					for i := 0; i < iters; i++ {
						at := &WeiPipe{iter: i}
						for _, row := range rows {
							if row.Dst == r {
								want[beltSend{row.Src, r, at.rowTag(row)}]++
							}
						}
					}
					for _, rv := range rec.recvs {
						got[rv]++
					}
					if !maps.Equal(got, want) {
						t.Errorf("rank %d received %v, the wiring's rows into it are %v", r, got, want)
					}
					if rec.owned == 0 {
						t.Errorf("rank %d sent no weight message of its own chunk: the test proved nothing", r)
					}
				}
				var chunk0 []string
				for _, rv := range recs[0].recvs {
					if rv.tag.Kind == comm.KindWeight && rv.tag.A == 0 {
						belt, use := (rv.tag.B>>beltUseBits)%beltCount, rv.tag.B&(1<<beltUseBits-1)
						chunk0 = append(chunk0, fmt.Sprintf("%d/%d", belt, use))
					}
				}
				slices.Sort(chunk0)
				if want := slices.Repeat([]string{fmt.Sprintf("%d/0", beltFwd), fmt.Sprintf("%d/4", beltBwd)}, iters); !slices.Equal(chunk0, slices.Sorted(slices.Values(want))) {
					t.Errorf("rank 0 took chunk 0 off the wire as (belt/use) %v in %d iterations, want F use 0 and B use 4 in each", chunk0, iters)
				}
			})
		}
	}
}

// TestForwardOfMasterWrittenSinceItsSealPanics: the master's buffer is the
// owned chunk's belt payload, sealed once an iteration (sealOwned) and
// written only between iterations. Under SetBufPoison, which the package's
// tests run under, Forward checks that promise over TCP: the master written
// after its seal panics at the forward; sealed again after the write — the
// next iteration's sealOwned — it arrives intact, with and without the
// Integrity trailer.
func TestForwardOfMasterWrittenSinceItsSealPanics(t *testing.T) {
	for _, integrity := range []bool{false, true} {
		trs := dialMesh(t, 2, comm.TCPOptions{})
		opts := eqOpts()
		opts.Integrity = integrity
		// Chunks large enough for the checksum table (comm.Seal).
		cfg := model.Config{Vocab: 256, Hidden: 64, Layers: 4, Heads: 4, MaxSeq: 8, Seed: 1}
		tr, err := New(StrategyWZB2, trs[0], cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := tr.(*WeiPipe)
		tag := w.rowTag(order.Msg{Kind: 'F', Chunk: w.ownChunk})
		w.sealOwned()
		w.master().w[7]++ // a step's write, after the seal
		w.master().reseal()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("integrity=%v: Forward of the master written after its seal did not panic", integrity)
					return
				}
				comm.Release(w.masterBuf) // the reference the panicking Forward never took
			}()
			comm.Retain(w.masterBuf)
			w.t.Forward(1, tag, w.masterBuf)
		}()
		comm.AwaitSole(w.masterBuf)
		w.sealOwned()
		comm.Retain(w.masterBuf)
		if err := w.t.Forward(1, tag, w.masterBuf); err != nil {
			t.Fatal(err)
		}
		got, err := trs[1].RecvTimeout(0, tag, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, w.masterBuf) {
			t.Errorf("integrity=%v: the resealed master arrived changed", integrity)
		}
		comm.Release(got)
		w.dropOwned()
		for _, tr := range trs {
			tr.Close()
		}
	}
}
