package authorsim_test

import (
	"math/rand"
	"sync"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/twittergen"
)

// bootGraph returns the follower graph the pipeline benchmark boots the
// daemon on at the given seed: 5,000 generated authors.
func bootGraph(seed int64) [][]int32 {
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(seed)), twittergen.DefaultGraphConfig(5000))
	if err != nil {
		panic(err)
	}
	return social.Followees
}

// bootFollowees is the benchmark's default graph, seed 1.
var bootFollowees = sync.OnceValue(func() [][]int32 { return bootGraph(1) })

// BenchmarkPairsAbove times the author-similarity join a daemon runs at
// boot, G(0.7) over the benchmark's follower graph. Run it with -cpu 1,2 to
// see the join's scaling.
func BenchmarkPairsAbove(b *testing.B) {
	v := authorsim.NewVectors(bootFollowees())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.PairsAbove(0.3)
	}
}

// BenchmarkBuildGraphInPlace times what a daemon does with the rows it
// decoded: sort and deduplicate every row in place, then run the join.
// Each iteration works on a fresh copy of the rows, made off the clock.
func BenchmarkBuildGraphInPlace(b *testing.B) {
	src := bootFollowees()
	rows := make([][]int32, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for a, f := range src {
			rows[a] = append(rows[a][:0], f...)
		}
		b.StartTimer()
		authorsim.BuildGraphInPlace(rows, 0.7)
	}
}
