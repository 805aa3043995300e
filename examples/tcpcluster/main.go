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
	"fmt"
	"log"

	"weipipe"
)

func main() {
	// One run is one RunSpec: 3 ranks train 5 iterations of 6 microbatches
	// of 2 sequences, iteration i drawing its batch from seed 100+i.
	spec := weipipe.RunSpec{
		Strategy: weipipe.WeiPipeInterleave,
		Model:    weipipe.Config{Vocab: 64, Hidden: 24, Layers: 3, Heads: 2, MaxSeq: 24, Seed: 3},
		Options:  weipipe.DefaultOptions(2e-3),
		World:    3, Iters: 5, MicroBatches: 6, MicroBatchSize: 2, BatchSeed: 100,
	}
	res, err := weipipe.RunResilient(spec, weipipe.RunHooks{
		// The wire precision belongs to the transport: weight and gradient
		// chunks cross the sockets as bf16, like the paper's working copies.
		Transports: spec.LoopbackTCP(weipipe.BeltBF16),
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
