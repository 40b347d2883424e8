package authorsim

import (
	"sync"
	"sync/atomic"
)

// ParallelChunks runs a computation over the index range [0, n), split into
// chunks of size consecutive indices (chunk c is [c·size, min(n, (c+1)·size))),
// on up to procs goroutines (at least one), the caller's included. The
// goroutines claim chunks from a shared counter, so chunks start in ascending
// order and a slow chunk holds up no other. newWorker runs once per
// goroutine, on it, and returns the function that goroutine runs each of its
// chunks through, so per-goroutine scratch lives in the closure and needs no
// lock.
//
// newWorker is passed its goroutine's share of procs: with g goroutines, each
// gets procs/g and the first procs%g one more, so the shares sum to procs. A
// chunk function that itself calls ParallelChunks with its goroutine's share
// keeps the whole computation on procs goroutines.
//
// merge, when not nil, is called once per chunk with its index, in ascending
// order and one call at a time. The goroutine that ran chunk c merges it once
// chunk c−1 is merged, waiting for that if need be, and only then claims
// another chunk: a finished chunk waits unmerged only behind one still
// running, and at most one per goroutine does.
//
// ParallelChunks returns once every chunk has run and been merged, with no
// goroutine it started left running.
func ParallelChunks(procs, n, size int, newWorker func(procs int) func(c, lo, hi int), merge func(c int)) {
	chunks := (n + size - 1) / size
	var (
		next   atomic.Int64
		mu     sync.Mutex
		turn   = sync.NewCond(&mu)
		merged int // guarded by mu: chunks [0, merged) are merged
	)
	run := func(share int) {
		work := newWorker(share)
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			work(c, c*size, min(n, (c+1)*size))
			if merge == nil {
				continue
			}
			// Chunks are claimed in order, so chunk merged is always claimed
			// and its goroutine is running it or about to merge it.
			mu.Lock()
			for merged != c {
				turn.Wait()
			}
			mu.Unlock()
			merge(c)
			mu.Lock()
			merged++
			turn.Broadcast()
			mu.Unlock()
		}
	}
	if chunks == 0 {
		return
	}
	procs = max(procs, 1)
	workers := min(procs, chunks)
	share := func(i int) int {
		if i < procs%workers {
			return procs/workers + 1
		}
		return procs / workers
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(share(i))
		}()
	}
	run(share(0))
	wg.Wait()
}
