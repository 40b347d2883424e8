// Replay: persist a corpus to disk, then replay it as a live feed through
// the diversifier at high speedup — the offline/online split of a real
// deployment (generate or crawl offline; diversify online).
//
// Run with: go run ./examples/replay
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"firehose"
	"firehose/internal/authorsim"
	"firehose/internal/connector"
	"firehose/internal/corpusio"
	"firehose/internal/twittergen"
)

func main() {
	dir, err := os.MkdirTemp("", "firehose-replay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Offline: generate one day of posts for 200 authors and persist the
	// corpus and the follow graph the author similarities derive from.
	rng := rand.New(rand.NewSource(11))
	social, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(200))
	if err != nil {
		log.Fatal(err)
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.7)
	vocab := twittergen.NewVocab(rand.New(rand.NewSource(12)), 2000)
	gen, err := twittergen.GenerateStream(rand.New(rand.NewSource(13)), social, g, vocab,
		twittergen.DefaultStreamConfig())
	if err != nil {
		log.Fatal(err)
	}

	corpusPath := filepath.Join(dir, "corpus.jsonl")
	followeesPath := filepath.Join(dir, "followees.jsonl")
	mustWrite(corpusPath, func(f *os.File) error { return corpusio.WritePosts(f, gen.Posts) })
	mustWrite(followeesPath, func(f *os.File) error { return corpusio.WriteFollowees(f, social.Followees) })
	fmt.Printf("offline: wrote %d posts and the follow graph of %d authors to %s\n",
		len(gen.Posts), len(social.Followees), dir)

	// Online: reload both artifacts and replay the day at 500,000× (a whole
	// day in ~0.2s), streaming through the diversifier with a live subscriber.
	posts := mustRead(corpusPath, corpusio.ReadPosts)
	followees := mustRead(followeesPath, corpusio.ReadFollowees)
	graph, err := firehose.BuildAuthorGraph(followees, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	div, err := firehose.NewDiversifier(firehose.UniBin, graph, nil, firehose.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	timeline := make(chan firehose.Post, 1024)
	done := make(chan int)
	go func() {
		n := 0
		for range timeline {
			n++
		}
		done <- n
	}()

	pacer, err := connector.NewPacer(500_000)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	emitted := 0
	for _, p := range posts {
		pacer.Wait(p.Time, nil)
		post := firehose.Post{ID: p.ID, Author: p.Author, Time: time.UnixMilli(p.Time), Text: p.Text}
		if div.Offer(post) {
			emitted++
			timeline <- post
		}
	}
	close(timeline)
	delivered := <-done

	s := div.Stats()
	fmt.Printf("online: replayed the day in %s; %d of %d posts reached the timeline (%.1f%% pruned)\n",
		time.Since(start).Round(time.Millisecond), emitted, s.Accepted+s.Rejected,
		100*s.PruneRatio())
	fmt.Printf("subscriber observed %d deliveries\n", delivered)
}

func mustWrite(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func mustRead[T any](path string, read func(r io.Reader) (T, error)) T {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		log.Fatal(err)
	}
	return v
}
