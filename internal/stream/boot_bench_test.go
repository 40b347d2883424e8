package stream

import (
	"math/rand"
	"sync"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/twittergen"
)

// bootInputs is what the pipeline benchmark's daemon boots its engine from:
// G(0.7) over 5,000 generated authors (seed 1) and their subscriptions.
var bootInputs = sync.OnceValues(func() (*authorsim.Graph, [][]int32) {
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(1)), twittergen.DefaultGraphConfig(5000))
	if err != nil {
		panic(err)
	}
	return authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.7), social.Subscriptions()
})

// BenchmarkNewParallelMultiEngine times the 2-worker S_UniBin engine build
// the batch-par daemon runs at boot, closing each engine off the clock.
// Run it with -cpu 1,2.
func BenchmarkNewParallelMultiEngine(b *testing.B) {
	g, subs := bootInputs()
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}
