// Liveserver: a live feed through the diversifier with a concurrent
// subscriber — the real-time deployment of the diversifier.
//
// A producer goroutine delivers the feed in time order; one goroutine owns
// the Diversifier (each decision depends on every earlier one, so decisions
// are serialized by ownership) and forwards every emitted post to the
// timeline channel; a consumer goroutine prints the diversified timeline as
// it materializes.
//
// Run with: go run ./examples/liveserver
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"firehose"
)

func main() {
	graph, err := firehose.BuildAuthorGraph([][]firehose.AuthorID{
		{1, 2, 3, 4}, // authors 0 and 1: similar (breaking-news bots)
		{1, 2, 3, 5},
		{9, 10, 11, 12}, // author 2: independent commentator
	}, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	div, err := firehose.NewDiversifier(firehose.UniBin, graph, nil, firehose.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A scripted "live" feed: the story breaks, gets re-shared by the
	// similar bot, and is independently reported by the commentator.
	start := time.Unix(0, 0)
	script := []struct {
		author firehose.AuthorID
		atSec  int64
		text   string
	}{
		{0, 0, "BREAKING: grid outage hits downtown, crews dispatched http://t.co/a1"},
		{1, 12, "BREAKING: grid outage hits downtown, crews dispatched http://t.co/b2"},
		{2, 20, "power is out across downtown; here is what we know so far"},
		{1, 45, "utility says service restored to most customers http://t.co/c3"},
		{0, 58, "utility says service restored to most customers http://t.co/d4"},
	}
	feed := make(chan firehose.Post)
	go func() {
		defer close(feed)
		for _, s := range script {
			feed <- firehose.Post{Author: s.author, Time: start.Add(time.Duration(s.atSec) * time.Second), Text: s.text}
			time.Sleep(30 * time.Millisecond) // pace the demo
		}
	}()

	timeline := make(chan firehose.Post, 64)
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for p := range timeline {
			fmt.Printf("TIMELINE  [a%d t+%02ds] %s\n", p.Author, int(p.Time.Sub(start).Seconds()), p.Text)
		}
	}()

	for p := range feed {
		if div.Offer(p) {
			timeline <- p
		} else {
			fmt.Printf("pruned    [a%d t+%02ds] %s\n", p.Author, int(p.Time.Sub(start).Seconds()), p.Text)
		}
	}
	close(timeline)
	consumer.Wait()

	s := div.Stats()
	fmt.Printf("\n%d offered, %d emitted, %d pruned (%d comparisons)\n",
		s.Accepted+s.Rejected, s.Accepted, s.Rejected, s.Comparisons)
}
