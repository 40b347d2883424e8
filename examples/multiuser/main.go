// Multiuser: a central M-SPSD service diversifying timelines for many users
// at once (paper Section 5, Figure 1b).
//
// Users subscribing to the same connected component of similar authors share
// one diversification state — the S_* optimization. This example builds a
// synthetic author universe, derives subscriptions from the follower graph,
// and shows how deliveries differ per user while shared components keep the
// total work low.
//
// Run with: go run ./examples/multiuser
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"firehose"
	"firehose/internal/authorsim"
	"firehose/internal/twittergen"
)

func main() {
	// Generate a 300-author universe with planted interest communities.
	rng := rand.New(rand.NewSource(7))
	social, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(300))
	if err != nil {
		log.Fatal(err)
	}
	graph, err := firehose.BuildAuthorGraph(social.Followees, 0.7)
	if err != nil {
		log.Fatal(err)
	}

	// Every author is also a user; subscriptions come from the follower
	// graph (followees that are authors).
	subs := social.Subscriptions()
	svc, err := firehose.NewService(graph, subs,
		firehose.ServiceOptions{Algorithm: firehose.UniBin, Config: firehose.DefaultConfig()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service %s: %d users, author graph with %d edges\n\n",
		svc.Algorithm(), len(subs), graph.NumEdges())

	// Generate one day of posts and push them through the service.
	vocab := twittergen.NewVocab(rand.New(rand.NewSource(8)), 3000)
	simGraph := authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.7)
	stream, err := twittergen.GenerateStream(
		rand.New(rand.NewSource(9)), social, simGraph, vocab, twittergen.DefaultStreamConfig())
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	deliveries := 0
	offered := 0
	for _, p := range stream.Posts {
		users := svc.Offer(firehose.Post{
			ID:     p.ID,
			Author: p.Author,
			Time:   time.UnixMilli(p.Time),
			Text:   p.Text,
		})
		deliveries += len(users)
		offered++
	}
	elapsed := time.Since(start)

	st := svc.Stats()
	fmt.Printf("ingested %d posts in %s (%.0f posts/sec)\n",
		offered, elapsed.Round(time.Millisecond), float64(offered)/elapsed.Seconds())
	fmt.Printf("timeline deliveries: %d (a post reaches only subscribers, and only when non-redundant)\n", deliveries)
	fmt.Printf("shared-state cost: %d comparisons, peak %d stored copies\n\n",
		st.Comparisons, st.PeakCopies)

	// Contrast with the independent M_* baseline on the same workload.
	base, err := firehose.NewService(graph, subs,
		firehose.ServiceOptions{Algorithm: firehose.UniBin, Config: firehose.DefaultConfig(), Independent: true})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	for _, p := range stream.Posts {
		base.Offer(firehose.Post{ID: p.ID, Author: p.Author, Time: time.UnixMilli(p.Time), Text: p.Text})
	}
	baseElapsed := time.Since(start)
	bst := base.Stats()
	fmt.Printf("baseline %s: %s, %d comparisons, peak %d copies\n",
		base.Algorithm(), baseElapsed.Round(time.Millisecond), bst.Comparisons, bst.PeakCopies)
	fmt.Printf("sharing saves %.0f%% of comparisons and %.0f%% of stored copies (paper Figure 16)\n",
		100*(1-float64(st.Comparisons)/float64(bst.Comparisons)),
		100*(1-float64(st.PeakCopies)/float64(bst.PeakCopies)))
}
