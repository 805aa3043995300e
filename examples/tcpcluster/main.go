// TCP cluster: the same WeiPipe training, but the ranks talk through a real
// TCP mesh on loopback — every weight chunk and gradient chunk crosses a
// socket, exactly as a multi-machine deployment would. Each rank runs in
// its own goroutine here; pointing the address list at real hosts is the
// only change needed to span machines.
//
//	go run ./examples/tcpcluster
package main

import (
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
	// The wire precision belongs to the transport: weight and gradient
	// chunks cross the sockets as bf16, like the paper's working copies.
	topts := weipipe.TCPOptions{Codec: weipipe.BeltBF16}

	addrs, err := weipipe.LoopbackAddrs(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bringing up a %d-rank TCP mesh: %v\n", p, addrs)

	transports := make([]weipipe.Transport, p)
	losses := make([][]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := weipipe.DialTCPOpts(r, addrs, topts)
			if err != nil {
				errs[r] = err
				return
			}
			transports[r] = tr
			trainer, err := weipipe.NewTrainer(weipipe.WeiPipeInterleave, tr, cfg, opts)
			if err != nil {
				errs[r] = err
				return
			}
			for it := 0; it < iters; it++ {
				batches := weipipe.Microbatches(uint64(100+it), n, 2, cfg.Vocab, cfg.MaxSeq)
				loss, err := trainer.TrainIteration(batches)
				if err != nil {
					errs[r] = err
					return
				}
				losses[r] = append(losses[r], loss)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
	}

	for it := 0; it < iters; it++ {
		fmt.Printf("iter %d  loss %.4f (identical on every rank: %v)\n",
			it, losses[0][it], losses[0][it] == losses[1][it] && losses[1][it] == losses[2][it])
	}
	for _, tr := range transports {
		if c, ok := tr.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	fmt.Println("done — weight chunks circulated over real sockets.")
}
