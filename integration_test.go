package firehose

import (
	"math/rand"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/twittergen"
)

// This file is the public-API acceptance test: a realistic corpus flows
// through the exported surface only, and the paper's coverage guarantee is
// verified with the exported distance functions.

func generateScenario(t *testing.T, nAuthors int, seed int64) (*AuthorGraph, []Post, [][]AuthorID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	social, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(nAuthors))
	if err != nil {
		t.Fatal(err)
	}
	graph, err := BuildAuthorGraph(social.Followees, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	simGraph := authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.7)
	vocab := twittergen.NewVocab(rand.New(rand.NewSource(seed+1)), 2000)
	gen, err := twittergen.GenerateStream(rand.New(rand.NewSource(seed+2)), social, simGraph, vocab,
		twittergen.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	posts := make([]Post, len(gen.Posts))
	for i, p := range gen.Posts {
		posts[i] = Post{ID: p.ID, Author: p.Author, Time: time.UnixMilli(p.Time), Text: p.Text}
	}
	return graph, posts, social.Subscriptions()
}

// TestPublicAPICoverageGuarantee verifies Problem 1's contract through the
// public API alone: every pruned post is within all three thresholds of some
// earlier kept post.
func TestPublicAPICoverageGuarantee(t *testing.T) {
	graph, posts, _ := generateScenario(t, 300, 77)
	cfg := DefaultConfig()
	d, err := NewDiversifier(CliqueBin, graph, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var kept []Post
	checked := 0
	for _, p := range posts {
		if d.Offer(p) {
			kept = append(kept, p)
			continue
		}
		// Pruned: find a kept post covering it.
		covered := false
		for i := len(kept) - 1; i >= 0; i-- {
			q := kept[i]
			dt := p.Time.Sub(q.Time)
			if dt < 0 {
				dt = -dt
			}
			if dt > cfg.LambdaT {
				break // kept is time-ordered; older posts are further away
			}
			if ContentDistance(p.Text, q.Text) <= cfg.LambdaC && graph.Similar(p.Author, q.Author) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("pruned post %d is not covered by any kept post", p.ID)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("degenerate scenario: nothing was pruned")
	}
	st := d.Stats()
	if st.Rejected != uint64(checked) || st.Accepted != uint64(len(kept)) {
		t.Fatalf("stats mismatch: %+v vs kept=%d pruned=%d", st, len(kept), checked)
	}
}

// TestPublicAPIAlgorithmsAgree runs all three algorithms over the same
// corpus through the public API and checks identical timelines.
func TestPublicAPIAlgorithmsAgree(t *testing.T) {
	graph, posts, _ := generateScenario(t, 250, 78)
	cfg := DefaultConfig()
	var timelines [3][]uint64
	for i, alg := range []Algorithm{UniBin, NeighborBin, CliqueBin} {
		d, err := NewDiversifier(alg, graph, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range posts {
			if d.Offer(p) {
				timelines[i] = append(timelines[i], p.ID)
			}
		}
	}
	if len(timelines[0]) != len(timelines[1]) || len(timelines[0]) != len(timelines[2]) {
		t.Fatalf("timeline sizes differ: %d / %d / %d",
			len(timelines[0]), len(timelines[1]), len(timelines[2]))
	}
	for i := range timelines[0] {
		if timelines[0][i] != timelines[1][i] || timelines[0][i] != timelines[2][i] {
			t.Fatalf("timelines diverge at %d", i)
		}
	}
}

// TestPublicAPIMultiUserConsistency: the shared service delivers to exactly
// the users whose own single-user diversifier would keep the post.
func TestPublicAPIMultiUserConsistency(t *testing.T) {
	graph, posts, subs := generateScenario(t, 200, 79)
	cfg := DefaultConfig()
	nUsers := 40
	subs = subs[:nUsers]

	svc, err := NewService(graph, subs, ServiceOptions{Algorithm: UniBin, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	perUser := make([]*Diversifier, nUsers)
	subscribed := make([]map[AuthorID]bool, nUsers)
	for u := 0; u < nUsers; u++ {
		perUser[u], err = NewDiversifier(UniBin, graph, subs[u], cfg)
		if err != nil {
			t.Fatal(err)
		}
		subscribed[u] = make(map[AuthorID]bool, len(subs[u]))
		for _, a := range subs[u] {
			subscribed[u][a] = true
		}
	}

	for _, p := range posts {
		delivered := map[UserID]bool{}
		for _, u := range svc.Offer(p) {
			delivered[u] = true
		}
		for u := 0; u < nUsers; u++ {
			if !subscribed[u][p.Author] {
				if delivered[UserID(u)] {
					t.Fatalf("post %d delivered to non-subscriber %d", p.ID, u)
				}
				continue
			}
			want := perUser[u].Offer(p)
			if delivered[UserID(u)] != want {
				t.Fatalf("post %d: service says %v for user %d, single-user says %v",
					p.ID, delivered[UserID(u)], u, want)
			}
		}
	}
}
