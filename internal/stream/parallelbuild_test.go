package stream

import (
	"runtime"
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
	for _, want := range []error{thErr, algErr, polErr} {
		if want == nil {
			t.Fatal("a constructor accepted an input the cases below rely on it refusing")
		}
	}

	cases := []struct {
		name string
		alg  core.Algorithm
		th   core.Thresholds
		opts ParallelOptions
		want error
	}{
		{"thresholds", core.AlgUniBin, bad, ParallelOptions{}, thErr},
		{"thresholds/neighborbin", core.AlgNeighborBin, bad, ParallelOptions{}, thErr},
		{"algorithm", core.Algorithm(9), good, ParallelOptions{}, algErr},
		{"adaptive policy", core.AlgUniBin, good, ParallelOptions{Adaptive: &pol}, polErr},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			before := runtime.NumGoroutine()
			e, err := NewParallelMultiEngineOpts(tc.alg, g, subs, tc.th, workers, tc.opts)
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
