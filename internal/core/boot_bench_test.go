package core_test

import (
	"math/rand"
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
