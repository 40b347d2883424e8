package stream

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"firehose/internal/core"
)

// TestParallelBuildErrors covers the error path of the concurrent
// per-worker solver build: each invalid input must fail the engine with the
// error a build of one worker's solver returns, and every goroutine the
// build started must have exited.
func TestParallelBuildErrors(t *testing.T) {
	g, subs, _ := parallelScenario(t, 41, 120)
	good := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	bad := good
	bad.LambdaC = -1
	pol := core.AdaptivePolicy{BudgetPosts: 0, WindowMillis: 1000, StepLambdaC: 1, MaxLambdaC: 24, MaxLambdaT: good.LambdaT}

	_, thErr := core.NewSharedMultiUser(core.AlgUniBin, g, subs, bad)
	_, algErr := core.NewSharedMultiUser(core.Algorithm(9), g, subs, good)
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, good)
	if err != nil {
		t.Fatal(err)
	}
	_, polErr := core.NewAdaptiveMultiUser(md, g, good, pol)
	// A user subscribed to an author below or past the graph's range.
	below, past := slices.Clone(subs), slices.Clone(subs)
	below[3] = append(slices.Clone(subs[3]), -3)
	past[7] = append(slices.Clone(subs[7]), int32(g.NumAuthors()+5))
	_, belowErr := core.NewSharedMultiUser(core.AlgUniBin, g, below, good)
	_, pastErr := core.NewSharedMultiUser(core.AlgUniBin, g, past, good)
	for _, want := range []error{thErr, algErr, polErr, belowErr, pastErr} {
		if want == nil {
			t.Fatal("a constructor accepted an input the cases below rely on it refusing")
		}
	}

	cases := []struct {
		name string
		alg  core.Algorithm
		th   core.Thresholds
		opts ParallelOptions
		subs [][]int32 // nil builds over subs
		want error
	}{
		{"thresholds", core.AlgUniBin, bad, ParallelOptions{}, nil, thErr},
		{"thresholds/neighborbin", core.AlgNeighborBin, bad, ParallelOptions{}, nil, thErr},
		{"algorithm", core.Algorithm(9), good, ParallelOptions{}, nil, algErr},
		{"adaptive policy", core.AlgUniBin, good, ParallelOptions{Adaptive: &pol}, nil, polErr},
		{"author below the graph", core.AlgUniBin, good, ParallelOptions{}, below, belowErr},
		{"author past the graph", core.AlgUniBin, good, ParallelOptions{}, past, pastErr},
		{"author past the graph/neighborbin", core.AlgNeighborBin, good, ParallelOptions{}, past, pastErr},
	}
	for _, tc := range cases {
		if tc.subs == nil {
			tc.subs = subs
		}
		for _, workers := range []int{1, 2, 4} {
			before := runtime.NumGoroutine()
			e, err := NewParallelMultiEngineOpts(tc.alg, g, tc.subs, tc.th, workers, tc.opts)
			if err == nil {
				e.Close()
				t.Fatalf("%s, %d workers: engine built", tc.name, workers)
			}
			if err.Error() != tc.want.Error() {
				t.Fatalf("%s, %d workers: error %q, want %q", tc.name, workers, err, tc.want)
			}
			// A goroutine that has signalled completion may still be exiting.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%s, %d workers: %d goroutines after the failed build, %d before",
						tc.name, workers, runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		}
	}
}

// TestParallelBuildCopiesNoSubscriptions: on the benchmark's boot graph,
// the 2-worker engine's build allocates what its workers' two solvers
// allocate when each is built alone over lists restricted to its
// components beforehand, plus the engine's own tables and queues (under
// 100 KB): no worker copies the subscription map. Such a copy costs each
// worker 24 bytes of slice header per user plus its kept ids (1.6 MB for
// the two). A build's bytes vary by up to ±75 KB with the instance table's
// map seed, so each figure is the least of three builds, and the bound
// leaves 256 KiB over the solvers.
func TestParallelBuildCopiesNoSubscriptions(t *testing.T) {
	g, subs := bootInputs()
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	allocated := func(build func()) uint64 {
		t.Helper()
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			build()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	solvers := uint64(0)
	for w := int32(0); w < 2; w++ {
		// NewParallelMultiEngine deals the components out round-robin.
		pre := make([][]int32, len(subs))
		for u, list := range subs {
			for _, a := range list {
				if int32(g.ComponentOf(a))%2 == w {
					pre[u] = append(pre[u], a)
				}
			}
		}
		solvers += allocated(func() {
			if _, err := core.NewSharedMultiUser(core.AlgUniBin, g, pre, th); err != nil {
				t.Fatal(err)
			}
		})
	}
	engine := allocated(func() {
		e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 2)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
	})
	if engine > solvers+256<<10 {
		t.Fatalf("the 2-worker build allocated %d bytes, its two solvers built alone %d; want at most 256 KiB more",
			engine, solvers)
	}
}
