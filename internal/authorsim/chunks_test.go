package authorsim

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelChunks runs ParallelChunks over ranges that do and do not
// divide into whole chunks, with chunks of uneven cost: every index must be
// run once, by at most GOMAXPROCS workers, every chunk merged once in
// ascending order, and never more than one finished chunk per worker left
// waiting for its merge.
func TestParallelChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 5, 64, 1000} {
			for _, size := range []int{1, 7, 32} {
				chunks := (n + size - 1) / size
				runs := make([]int32, n)
				cost := rand.New(rand.NewSource(int64(n*size + procs)))
				spin := make([]int, chunks)
				for c := range spin {
					spin[c] = cost.Intn(20000)
				}
				var workers atomic.Int32
				var mu sync.Mutex // guards waiting, maxWaiting and merged
				var waiting, maxWaiting int
				var merged []int
				ParallelChunks(procs, n, size, func(int) func(c, lo, hi int) {
					workers.Add(1)
					return func(c, lo, hi int) {
						if lo != c*size || hi != min(n, lo+size) {
							t.Errorf("chunk %d is [%d, %d)", c, lo, hi)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&runs[i], 1)
						}
						x := 0
						for i := 0; i < spin[c]; i++ {
							x += i * i
						}
						spin[c] = x
						mu.Lock()
						waiting++
						maxWaiting = max(maxWaiting, waiting)
						mu.Unlock()
					}
				}, func(c int) {
					mu.Lock()
					waiting--
					merged = append(merged, c)
					mu.Unlock()
				})
				for i, r := range runs {
					if r != 1 {
						t.Fatalf("procs %d n %d size %d: index %d ran %d times", procs, n, size, i, r)
					}
				}
				if len(merged) != chunks {
					t.Fatalf("procs %d n %d size %d: %d merges, want %d", procs, n, size, len(merged), chunks)
				}
				for i, c := range merged {
					if c != i {
						t.Fatalf("procs %d n %d size %d: merge order %v", procs, n, size, merged)
					}
				}
				if w := workers.Load(); int(w) > procs {
					t.Fatalf("procs %d n %d size %d: %d workers", procs, n, size, w)
				}
				if maxWaiting > procs {
					t.Fatalf("procs %d n %d size %d: %d chunks waited for their merge at once", procs, n, size, maxWaiting)
				}
			}
		}
	}
}

// TestParallelChunksNested runs ParallelChunks inside ParallelChunks, each
// inner call on its goroutine's share of the outer budget: the shares must
// sum to the budget, and no more chunks than the budget may ever run at
// once across both levels.
func TestParallelChunksNested(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{1, 2, 3, 5, 10} {
			var shares atomic.Int32
			var mu sync.Mutex // guards active and maxActive
			var active, maxActive int
			ParallelChunks(procs, n, 1, func(share int) func(c, lo, hi int) {
				if share < 1 {
					t.Errorf("procs %d n %d: share %d", procs, n, share)
				}
				shares.Add(int32(share))
				return func(_, _, _ int) {
					ParallelChunks(share, 8, 1, func(int) func(c, lo, hi int) {
						return func(_, _, _ int) {
							mu.Lock()
							active++
							maxActive = max(maxActive, active)
							mu.Unlock()
							time.Sleep(100 * time.Microsecond)
							mu.Lock()
							active--
							mu.Unlock()
						}
					}, nil)
				}
			}, nil)
			if s := shares.Load(); int(s) != procs {
				t.Fatalf("procs %d n %d: shares sum to %d", procs, n, s)
			}
			if maxActive > procs {
				t.Fatalf("procs %d n %d: %d chunks ran at once", procs, n, maxActive)
			}
		}
	}
}
