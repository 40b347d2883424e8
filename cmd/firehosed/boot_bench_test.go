package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"firehose/internal/connector"
	"firehose/internal/core"
	"firehose/internal/corpusio"
	"firehose/internal/shard"
	"firehose/internal/twittergen"
)

// BenchmarkShardWorkerBoot times a shard worker's whole boot chain on the
// pipeline benchmark's engine section and 5,000-author followees file
// (seed 1): decode and hash the file, sort its rows and run the join
// (engineInputs), plan the 2-shard assignment, restrict the subscription
// lists to shard 0 and build its S_UniBin solver. Run it with -cpu 1,2
// -benchmem; the file is written once, off the clock.
func BenchmarkShardWorkerBoot(b *testing.B) {
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(1)), twittergen.DefaultGraphConfig(5000))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "followees.jsonl")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := corpusio.WriteFollowees(f, social.Followees); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	ec := connector.DefaultConfig().Engine
	ec.LambdaC, ec.LambdaTMillis, ec.LambdaA, ec.Index = 18, 1800000, 0.7, "auto"
	ec.FolloweesPath = path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th, g, subs, _, err := engineInputs(&ec, true)
		if err != nil {
			b.Fatal(err)
		}
		assign, err := shard.Plan(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewSharedMultiUser(core.AlgUniBin, g, workerSubscriptions(g, subs, assign, 0), th); err != nil {
			b.Fatal(err)
		}
	}
}
