// Command firehose generates a synthetic social-post corpus, diversifies it
// with a chosen algorithm and thresholds, and reports the stream statistics —
// a one-command tour of the library.
//
// Usage:
//
//	firehose [-authors N] [-seed S] [-alg unibin|neighborbin|cliquebin]
//	         [-lambdac BITS] [-lambdat DURATION] [-lambdaa DIST]
//	         [-show N] [-multi]
//
// With -multi it instead runs the multi-user service (every author is a
// user subscribed to the accounts they follow) and reports per-service
// statistics.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"firehose"
	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/corpusio"
	"firehose/internal/twittergen"
)

func main() {
	var (
		authors = flag.Int("authors", 1000, "number of authors")
		seed    = flag.Int64("seed", 1, "generation seed")
		algName = flag.String("alg", "cliquebin", "unibin | neighborbin | cliquebin")
		lambdaC = flag.Int("lambdac", 18, "content threshold λc (SimHash bits)")
		lambdaT = flag.Duration("lambdat", 30*time.Minute, "time threshold λt")
		lambdaA = flag.Float64("lambdaa", 0.7, "author distance threshold λa")
		show    = flag.Int("show", 5, "print the first N kept and pruned posts")
		multi   = flag.Bool("multi", false, "run the multi-user service instead of single-user")

		loadCorpus    = flag.String("corpus", "", "load posts from this JSONL corpus instead of generating")
		loadFollowees = flag.String("followees", "", "load followee vectors from this JSONL file instead of generating")
		saveCorpus    = flag.String("save-corpus", "", "write the post stream to this JSONL file")
		saveFollowees = flag.String("save-followees", "", "write the followee vectors to this JSONL file")
		saveGraph     = flag.String("save-graph", "", "write the author similarity graph to this JSONL file")
	)
	flag.Parse()

	var alg firehose.Algorithm
	switch *algName {
	case "unibin":
		alg = firehose.UniBin
	case "neighborbin":
		alg = firehose.NeighborBin
	case "cliquebin":
		alg = firehose.CliqueBin
	default:
		fmt.Fprintf(os.Stderr, "unknown -alg %q\n", *algName)
		os.Exit(2)
	}

	var (
		followees [][]int32
		social    *twittergen.SocialGraph
		posts     []*core.Post
	)
	if *loadFollowees != "" {
		fmt.Printf("loading followees from %s...\n", *loadFollowees)
		followees = loadJSONL(*loadFollowees, corpusio.ReadFollowees)
	}
	if *loadCorpus != "" {
		fmt.Printf("loading corpus from %s...\n", *loadCorpus)
		posts = loadJSONL(*loadCorpus, corpusio.ReadPosts)
	}
	if followees == nil || posts == nil {
		fmt.Printf("generating %d authors (seed %d)...\n", *authors, *seed)
		rng := rand.New(rand.NewSource(*seed))
		var err error
		social, err = twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(*authors))
		check(err)
		if followees == nil {
			followees = social.Followees
		}
		if posts == nil {
			simGraph := authorsim.BuildGraph(authorsim.NewVectors(followees), *lambdaA)
			vocab := twittergen.NewVocab(rand.New(rand.NewSource(*seed+1)), 5000)
			stream, err := twittergen.GenerateStream(
				rand.New(rand.NewSource(*seed+2)), social, simGraph, vocab, twittergen.DefaultStreamConfig())
			check(err)
			posts = stream.Posts
		}
	}

	graph, err := firehose.BuildAuthorGraph(followees, *lambdaA)
	check(err)
	fmt.Printf("%d posts; author graph has %d edges (avg degree %.1f)\n\n",
		len(posts), graph.NumEdges(), graph.AvgDegree())

	if *saveCorpus != "" {
		saveJSONL(*saveCorpus, func(w *os.File) error { return corpusio.WritePosts(w, posts) })
	}
	if *saveFollowees != "" {
		saveJSONL(*saveFollowees, func(w *os.File) error { return corpusio.WriteFollowees(w, followees) })
	}
	if *saveGraph != "" {
		g := authorsim.BuildGraph(authorsim.NewVectors(followees), *lambdaA)
		saveJSONL(*saveGraph, func(w *os.File) error { return corpusio.WriteGraph(w, g) })
	}

	cfg := firehose.Config{LambdaC: *lambdaC, LambdaT: *lambdaT, LambdaA: *lambdaA}

	if *multi {
		if social == nil {
			fmt.Fprintln(os.Stderr, "-multi requires generated subscriptions (omit -corpus/-followees)")
			os.Exit(2)
		}
		runMulti(graph, social, posts, cfg, alg)
		return
	}

	d, err := firehose.NewDiversifier(alg, graph, nil, cfg)
	check(err)

	start := time.Now()
	var kept, pruned []*core.Post
	for _, p := range posts {
		if d.Offer(firehose.Post{ID: p.ID, Author: p.Author, Time: time.UnixMilli(p.Time), Text: p.Text}) {
			kept = append(kept, p)
		} else {
			pruned = append(pruned, p)
		}
	}
	elapsed := time.Since(start)

	st := d.Stats()
	fmt.Printf("algorithm:    %s\n", d.Algorithm())
	fmt.Printf("thresholds:   λc=%d bits, λt=%s, λa=%.2f\n", cfg.LambdaC, cfg.LambdaT, cfg.LambdaA)
	fmt.Printf("ingested:     %d posts in %s (%.0f posts/sec)\n",
		len(posts), elapsed.Round(time.Millisecond),
		float64(len(posts))/elapsed.Seconds())
	fmt.Printf("kept:         %d (%.1f%%)\n", st.Accepted, 100*(1-st.PruneRatio()))
	fmt.Printf("pruned:       %d (%.1f%%)\n", st.Rejected, 100*st.PruneRatio())
	fmt.Printf("comparisons:  %d\n", st.Comparisons)
	fmt.Printf("insertions:   %d\n", st.Insertions)
	fmt.Printf("peak copies:  %d (≈%d KiB)\n", st.PeakCopies, st.EstRAMBytes/1024)

	printSample("kept", kept, *show)
	printSample("pruned", pruned, *show)
}

func runMulti(graph *firehose.AuthorGraph, social *twittergen.SocialGraph, posts []*core.Post, cfg firehose.Config, alg firehose.Algorithm) {
	subs := social.Subscriptions()
	svc, err := firehose.NewService(graph, subs, firehose.ServiceOptions{Algorithm: alg, Config: cfg})
	check(err)

	start := time.Now()
	deliveries := 0
	for _, p := range posts {
		deliveries += len(svc.Offer(firehose.Post{
			ID: p.ID, Author: p.Author, Time: time.UnixMilli(p.Time), Text: p.Text,
		}))
	}
	elapsed := time.Since(start)
	st := svc.Stats()
	fmt.Printf("service:      %s, %d users\n", svc.Algorithm(), len(subs))
	fmt.Printf("ingested:     %d posts in %s\n", len(posts), elapsed.Round(time.Millisecond))
	fmt.Printf("deliveries:   %d timeline insertions\n", deliveries)
	fmt.Printf("comparisons:  %d\n", st.Comparisons)
	fmt.Printf("peak copies:  %d (≈%d KiB)\n", st.PeakCopies, st.EstRAMBytes/1024)
}

func printSample(label string, posts []*core.Post, n int) {
	fmt.Printf("\nfirst %d %s posts:\n", n, label)
	for i, p := range posts {
		if i >= n {
			break
		}
		fmt.Printf("  [%s] a%-5d %s\n",
			time.UnixMilli(p.Time).UTC().Format("15:04:05"), p.Author, clip(p.Text, 90))
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// loadJSONL opens a file and decodes it with the given reader.
func loadJSONL[T any](path string, read func(r io.Reader) (T, error)) T {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	v, err := read(f)
	check(err)
	return v
}

// saveJSONL writes an artifact to a file and reports where it went.
func saveJSONL(path string, write func(w *os.File) error) {
	f, err := os.Create(path)
	check(err)
	check(write(f))
	check(f.Close())
	fmt.Printf("wrote %s\n", path)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
