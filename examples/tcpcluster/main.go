// TCP cluster: the same WeiPipe training, but the ranks talk through a real
// TCP mesh on loopback — every weight chunk and gradient chunk crosses a
// socket, exactly as a multi-machine deployment would. RunResilient runs
// one rank per goroutine over the mesh and closes it when a rank fails, so
// a failure ends the run with its error instead of leaving the peers parked
// in Recv. Pointing the address list at real hosts is the only change needed
// to span machines.
//
//	go run ./examples/tcpcluster
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"

	"weipipe"
)

func main() {
	const (
		p     = 3
		iters = 5
		n     = 6 // microbatches per iteration
	)
	cfg := weipipe.Config{Vocab: 64, Hidden: 24, Layers: 3, Heads: 2, MaxSeq: 24, Seed: 3}
	opts := weipipe.DefaultOptions(2e-3)

	mesh := func(_, size int) ([]weipipe.Transport, error) {
		addrs, err := weipipe.LoopbackAddrs(size)
		if err != nil {
			return nil, err
		}
		fmt.Printf("bringing up a %d-rank TCP mesh: %v\n", size, addrs)
		// The wire precision belongs to the transport: weight and gradient
		// chunks cross the sockets as bf16, like the paper's working copies.
		topts := weipipe.TCPOptions{Codec: weipipe.BeltBF16}
		transports := make([]weipipe.Transport, size)
		errs := make([]error, size)
		var wg sync.WaitGroup
		for r := range transports {
			wg.Add(1)
			go func() {
				defer wg.Done()
				transports[r], errs[r] = weipipe.DialTCPOpts(r, addrs, topts)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			for _, tr := range transports {
				if tr != nil {
					tr.Close()
				}
			}
			return nil, err
		}
		return transports, nil
	}

	res, err := weipipe.RunResilient(weipipe.WeiPipeInterleave, p, cfg, opts, iters,
		func(it int) []weipipe.Batch {
			return weipipe.Microbatches(uint64(100+it), n, 2, cfg.Vocab, cfg.MaxSeq)
		},
		mesh, weipipe.ResilientOptions{
			OnIteration: func(it int, loss float64) {
				fmt.Printf("iter %d  loss %.4f (agreed by every rank at the loss barrier)\n", it, loss)
			},
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done — weight chunks circulated over real sockets (%d bytes sent).\n",
		res.TotalComm().TotalSentBytes())
}
