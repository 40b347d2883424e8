package core_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/twittergen"
)

// bootInputs is what the pipeline benchmark's daemon boots its solver from:
// G(0.7) over 5,000 generated authors (seed 1) and their subscriptions.
var bootInputs = sync.OnceValues(func() (*authorsim.Graph, [][]int32) {
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(1)), twittergen.DefaultGraphConfig(5000))
	if err != nil {
		panic(err)
	}
	return authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.7), social.Subscriptions()
})

// BenchmarkNewSharedMultiUser times the S_UniBin build a sequential daemon
// runs at boot: every user's induced components, deduplicated into the
// shared-component table, and the rings over them. Run it with -cpu 1,2.
func BenchmarkNewSharedMultiUser(b *testing.B) {
	g, subs := bootInputs()
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRestrictedBuildCopiesNoSubscriptions: a solver over part of the
// authors (keep) filters each user's list into its goroutine's scratch, so
// on the benchmark's boot graph it allocates what a build over lists
// restricted beforehand allocates, give or take that scratch: it makes no
// per-user copy of the subscriptions. Such a copy of either half of the map
// (one of a 2-worker parallel engine's workers) costs 24 bytes of slice
// header per user plus the kept ids, about 0.4 MB. A build's bytes vary by
// up to ±75 KB with the instance table's map seed, so each side is the
// least of three builds and the slack is 128 KiB.
func TestRestrictedBuildCopiesNoSubscriptions(t *testing.T) {
	g, subs := bootInputs()
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	allocated := func(subs [][]int32, keep func(int32) bool) uint64 {
		t.Helper()
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := core.NewSharedMultiUserOn(runtime.GOMAXPROCS(0), core.AlgUniBin, g, subs, keep, th); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	for w := 0; w < 2; w++ {
		keep := func(a int32) bool { return g.ComponentOf(a)%2 == w }
		pre := make([][]int32, len(subs))
		for u, list := range subs {
			for _, a := range list {
				if keep(a) {
					pre[u] = append(pre[u], a)
				}
			}
		}
		want := allocated(pre, nil)
		if got := allocated(subs, keep); got > want+128<<10 {
			t.Fatalf("half %d: the filtering build allocated %d bytes, the build over restricted lists %d; want at most 128 KiB more",
				w, got, want)
		}
	}
}
