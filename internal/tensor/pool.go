package tensor

import (
	"runtime"
	"sync"
)

// The matmul and attention kernels fan work out to a persistent pool of
// worker goroutines instead of spawning goroutines per call: small and medium
// matmuls would otherwise pay goroutine-creation latency comparable to their
// compute time. The pool is started lazily on the first parallel dispatch and
// sized by GOMAXPROCS at that moment; it lives for the process lifetime.
//
// Work items reference a pooled job header (poolJob) so a steady-state
// dispatch performs no heap allocation: the job headers are recycled through a
// sync.Pool and the per-chunk tasks are passed by value through the channel.
//
// Determinism: a chunk [lo,hi) always computes exactly the per-item results
// the serial kernel computes — the kernels never accumulate across work
// items — so results are bitwise identical regardless of worker count or
// chunking.

// poolTask is one contiguous item-range of a dispatched kernel.
type poolTask struct {
	job    *poolJob
	lo, hi int
}

// poolJob is the shared state of one dispatch: the kernel arguments (matmul
// or attention) plus the completion latch. Recycled via jobPool.
type poolJob struct {
	mm   mmArgs
	attn attnArgs
	// isAttn selects which of the two argument sets this dispatch runs.
	isAttn bool
	wg     sync.WaitGroup
}

func (j *poolJob) run(lo, hi int) {
	if j.isAttn {
		j.attn.run(lo, hi)
	} else {
		j.mm.run(lo, hi)
	}
}

var (
	poolOnce sync.Once
	poolCh   chan poolTask
	jobPool  = sync.Pool{New: func() any { return new(poolJob) }}
)

func startPool() {
	workers := runtime.GOMAXPROCS(0)
	poolCh = make(chan poolTask, 4*workers)
	for i := 0; i < workers; i++ {
		go poolWorker()
	}
}

func poolWorker() {
	for t := range poolCh {
		t.job.run(t.lo, t.hi)
		t.job.wg.Done()
	}
}

// dispatch runs a matmul over [0, rows) dst rows, splitting across the
// worker pool when the problem is large enough.
func dispatch(args *mmArgs, rows, flops int) {
	workers := poolWorkers(rows, flops, splitThreshold(args.simd, false))
	if workers <= 1 {
		args.run(0, rows)
		return
	}
	job := jobPool.Get().(*poolJob)
	job.mm, job.isAttn = *args, false
	job.fanOut(rows, workers)
}

// dispatchAttn is dispatch for an attention call's work items.
func dispatchAttn(args *attnArgs, items int) {
	workers := poolWorkers(items, args.g*args.heads*args.sq*args.sk*args.d, splitThreshold(args.simd, true))
	if workers <= 1 {
		args.run(0, items)
		return
	}
	job := jobPool.Get().(*poolJob)
	job.attn, job.isAttn = *args, true
	job.fanOut(items, workers)
}

// poolWorkers is how many chunks a dispatch of items work items splits into;
// 1 means run on the calling goroutine.
func poolWorkers(items, work, threshold int) int {
	workers := runtime.GOMAXPROCS(0)
	if work < threshold || workers <= 1 || items <= 1 {
		return 1
	}
	return min(workers, items)
}

// fanOut runs the job over [0, items) in contiguous chunks and recycles it.
// The calling goroutine always executes the first chunk itself, so the pool
// only ever carries workers-1 tasks per dispatch and the caller never idles
// while work remains.
func (j *poolJob) fanOut(items, workers int) {
	poolOnce.Do(startPool)
	chunk := (items + workers - 1) / workers
	j.wg.Add((items - 1) / chunk) // chunks beyond the caller's first
	for lo := chunk; lo < items; lo += chunk {
		poolCh <- poolTask{job: j, lo: lo, hi: min(lo+chunk, items)}
	}
	j.run(0, chunk)
	j.wg.Wait()
	jobPool.Put(j)
}
