package main

import (
	"runtime"
	"sync"
	"time"
)

// hostRef measures how fast the host is running this process right now: the
// rate, in GFLOP/s summed over every P, of a fixed pure-Go kernel (a 64³
// float32 multiply-accumulate nest, L1-resident) spun for d. The kernel is
// the benchmark's own and calls nothing of the program, so a change to the
// program cannot move it.
func hostRef(d time.Duration) float64 {
	const n = 64
	procs := runtime.GOMAXPROCS(0)
	nests := make([]int, procs)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var a, b, c [n][n]float32
			for i := range a {
				for j := range a[i] {
					a[i][j], b[i][j] = float32(i+j)/n, float32(i-j)/n
				}
			}
			for ok := true; ok; ok = time.Since(start) < d { // at least one nest
				for i := 0; i < n; i++ {
					for k := 0; k < n; k++ {
						aik := a[i][k]
						for j := 0; j < n; j++ {
							c[i][j] += aik * b[k][j]
						}
					}
				}
				nests[g]++
			}
			refSink = c[1][1]
		}(g)
	}
	wg.Wait()
	total := 0
	for _, k := range nests {
		total += k
	}
	return float64(total) * 2 * n * n * n / float64(time.Since(start))
}

// refSink keeps the kernel's result alive so the compiler cannot drop it.
var refSink float32
