package core

import (
	"math/rand"
	"slices"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/simhash"
)

// graphSwapper is the churn hook every multi-user solver exposes.
type graphSwapper interface {
	MultiDiversifier
	SetGraph(*authorsim.Graph) error
}

// TestSetGraphContracts pins the churn hook's refusal semantics: only
// AlgUniBin solvers accept a refreshed graph (their bins are
// graph-independent), and even they reject a graph whose author universe
// changed size — the routing tables are dense arrays indexed by author id,
// so a silent resize would drop new authors' posts or index out of bounds.
func TestSetGraphContracts(t *testing.T) {
	g := authorsim.NewGraph(6, []authorsim.SimPair{{A: 0, B: 1}, {A: 2, B: 3}}, 0.7)
	grown := authorsim.NewGraph(8, nil, 0.7)
	shrunk := authorsim.NewGraph(4, nil, 0.7)
	same := authorsim.NewGraph(6, []authorsim.SimPair{{A: 1, B: 2}}, 0.7)
	subs := [][]int32{{0, 1, 2}, {3, 4, 5}}
	th := Thresholds{LambdaC: 10, LambdaT: 1000, LambdaA: 0.7}
	ths := []Thresholds{th, th}

	builders := []struct {
		name string
		mk   func(alg Algorithm) (graphSwapper, error)
	}{
		{"M", func(alg Algorithm) (graphSwapper, error) { return NewMultiUser(alg, g, subs, th) }},
		{"S", func(alg Algorithm) (graphSwapper, error) { return NewSharedMultiUser(alg, g, subs, th) }},
		{"Custom", func(alg Algorithm) (graphSwapper, error) { return NewCustomMultiUser(alg, g, subs, ths) }},
	}
	for _, b := range builders {
		for _, alg := range []Algorithm{AlgNeighborBin, AlgCliqueBin} {
			md, err := b.mk(alg)
			if err != nil {
				t.Fatal(err)
			}
			if err := md.SetGraph(same); err == nil {
				t.Errorf("%s_%v: SetGraph accepted; bin layouts bake the old graph", b.name, alg)
			}
		}
		md, err := b.mk(AlgUniBin)
		if err != nil {
			t.Fatal(err)
		}
		if err := md.SetGraph(grown); err == nil {
			t.Errorf("%s_UniBin: grown graph accepted", b.name)
		}
		if err := md.SetGraph(shrunk); err == nil {
			t.Errorf("%s_UniBin: shrunk graph accepted", b.name)
		}
		if err := md.SetGraph(same); err != nil {
			t.Errorf("%s_UniBin: same-size refresh rejected: %v", b.name, err)
		}
	}

	// The adaptive wrapper delegates, including refusals.
	inner, err := NewSharedMultiUser(AlgCliqueBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	pol := AdaptivePolicy{BudgetPosts: 1, WindowMillis: 1000, MaxLambdaC: th.LambdaC, MaxLambdaT: th.LambdaT, StepLambdaC: 1}
	a, err := NewAdaptiveMultiUser(inner, g, th, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetGraph(same); err == nil {
		t.Error("Adaptive(S_CliqueBin): SetGraph accepted")
	}
	innerU, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	au, err := NewAdaptiveMultiUser(innerU, g, th, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := au.SetGraph(same); err != nil {
		t.Errorf("Adaptive(S_UniBin): same-size refresh rejected: %v", err)
	}
}

// TestSetGraphChangesDecisions checks the refreshed adjacency is actually
// consulted from the next Offer on, and that boundary author ids keep
// working after the swap.
func TestSetGraphChangesDecisions(t *testing.T) {
	// A chain 0–1–2–3: one connected component (so the S_* solver puts all
	// four authors in one shared bin), but 0 and 3 are not adjacent — the
	// coverage edge the refresh will add. S_*'s component partition is
	// construction-time by design, so the refreshed edge must join authors
	// already sharing a component to be visible there.
	chain := []authorsim.SimPair{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}}
	g := authorsim.NewGraph(4, chain, 0.7)
	th := Thresholds{LambdaC: 4, LambdaT: 10_000, LambdaA: 0.7}
	subs := [][]int32{{0, 1, 2, 3}}
	fp := simhash.Fingerprint(0xABCD)
	for _, shared := range []bool{false, true} {
		var md graphSwapper
		var err error
		if shared {
			md, err = NewSharedMultiUser(AlgUniBin, g, subs, th)
		} else {
			md, err = NewMultiUser(AlgUniBin, g, subs, th)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := md.Offer(&Post{ID: 1, Author: 0, Time: 0, FP: fp}); len(got) != 1 {
			t.Fatalf("shared=%v: first post not delivered: %v", shared, got)
		}
		// Refresh: author 0 gains the edge to 3 (keeping its edge to 1).
		g2, err := g.WithUpdatedAuthor(0, []int32{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := md.SetGraph(g2); err != nil {
			t.Fatal(err)
		}
		// Author 3 (the boundary id) is now covered by author 0's stored
		// post; without the refresh this identical-content post is delivered
		// (0 and 3 were not similar).
		if got := md.Offer(&Post{ID: 2, Author: 3, Time: 100, FP: fp}); len(got) != 0 {
			t.Fatalf("shared=%v: refreshed adjacency not consulted: %v", shared, got)
		}
		// Author 2 stays non-adjacent to 0, and 3's post was suppressed (not
		// stored), so identical content from 2 still flows.
		if got := md.Offer(&Post{ID: 3, Author: 2, Time: 200, FP: fp}); len(got) != 1 {
			t.Fatalf("shared=%v: unrelated author suppressed after swap: %v", shared, got)
		}
	}
}

// TestChurnMidStreamCoherence drives the full maintenance loop the paper
// sketches (Section 3) against a live solver: followee sets shrink and grow
// through MutableVectors.SetFollowees, each change folds into a refreshed
// graph via WithUpdatedAuthor, the refreshed graph swaps into the running
// S_UniBin solver, and the stream keeps flowing — including posts by the
// churned author and by the boundary ids — with component dedup staying
// coherent (no stale-index panics, every churned neighbor still in-graph).
// The per-instance specification (one UniBin per construction-time shared
// instance) takes the same swaps and must deliver exactly what S_UniBin's
// rings deliver — M_UniBin is no reference here: its per-user bin spans
// components, so an edge a refresh adds between two of a user's components
// covers across them, which S_*'s construction-time partition by design does
// not. At a random round S_UniBin is snapshotted and continued from a
// restore into a fresh solver.
func TestChurnMidStreamCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const nAuthors = 24
	const lambdaA = 0.7

	// Initial followee vectors: a few shared targets so similarity exists.
	followees := make([][]int32, nAuthors)
	for a := range followees {
		k := 3 + rng.Intn(6)
		for i := 0; i < k; i++ {
			followees[a] = append(followees[a], int32(rng.Intn(40)))
		}
	}
	mv := authorsim.NewMutableVectors(authorsim.NewVectors(followees))
	g := authorsim.BuildGraph(mv.Vectors(), lambdaA)

	subs := randomSubscriptions(rng, 8, nAuthors)
	th := Thresholds{LambdaC: 6, LambdaT: 5_000, LambdaA: lambdaA}
	g0 := g
	md, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	ref := newPerInstance(t, AlgUniBin, g, subs, th)

	now := int64(0)
	offerSome := func(tag int) {
		// Posts from the boundary ids and a random spread; some identical
		// fingerprints so the coverage probe consults the (refreshed) graph.
		authors := []int32{0, nAuthors - 1, int32(rng.Intn(nAuthors)), int32(rng.Intn(nAuthors))}
		for i, a := range authors {
			now += int64(rng.Intn(500))
			fp := simhash.Fingerprint(0x1000 + uint64(tag%3)) // heavy content collisions
			p := &Post{ID: uint64(tag*10 + i), Author: a, Time: now, FP: fp}
			want := ref.Offer(p)
			if got := md.Offer(p); !slices.Equal(got, want) {
				t.Fatalf("tag %d post %d: S_UniBin delivered %v, per-instance spec %v", tag, i, got, want)
			}
		}
	}

	restoreAt := rng.Intn(30)
	for round := 0; round < 30; round++ {
		if round == restoreAt {
			// The restore target is built like the original (construction
			// graph) and brought to the current graph before the swap in.
			fresh, err := NewSharedMultiUser(AlgUniBin, g0, subs, th)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.SetGraph(g); err != nil {
				t.Fatal(err)
			}
			if err := restoreState(fresh, snapState(t, md)); err != nil {
				t.Fatalf("round %d: restore: %v", round, err)
			}
			if a, b := decisionCounters(md.Counters()), decisionCounters(fresh.Counters()); a != b {
				t.Fatalf("round %d: restored counters %v, original %v", round, b, a)
			}
			md = fresh
		}
		offerSome(round)
		a := int32(rng.Intn(nAuthors))
		var next []int32
		if round%2 == 0 { // shrink to one followee
			next = []int32{int32(rng.Intn(40))}
		} else { // grow well past the original size
			for i := 0; i < 12; i++ {
				next = append(next, int32(rng.Intn(40)))
			}
		}
		if err := mv.SetFollowees(a, next); err != nil {
			t.Fatal(err)
		}
		pairs, err := mv.SimilaritiesOf(a, 1-lambdaA)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := g.WithUpdatedAuthor(a, authorsim.NeighborsFromPairs(a, pairs))
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumAuthors() != nAuthors {
			t.Fatalf("round %d: churn changed the author universe to %d", round, g2.NumAuthors())
		}
		for _, nb := range g2.Neighbors(a) {
			if !g2.Contains(nb) {
				t.Fatalf("round %d: churned neighbor %d not in graph", round, nb)
			}
		}
		if err := md.SetGraph(g2); err != nil {
			t.Fatal(err)
		}
		ref.SetGraph(g2)
		g = g2
		offerSome(round + 1000)
	}
	c := md.Counters()
	if c.Processed() == 0 || c.Accepted == 0 {
		t.Fatalf("stream did not flow: %+v", c)
	}

	// A CliqueBin solver over the same churned history: SetGraph must refuse
	// (its cover bakes the construction graph), the stale solver must keep
	// deciding without panics, and a rebuild over the final graph must
	// validate cleanly — the documented recompute path.
	cb, err := NewSharedMultiUser(AlgCliqueBin, authorsim.BuildGraph(mv.Vectors(), lambdaA), subs, th)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.SetGraph(g); err == nil {
		t.Fatal("S_CliqueBin accepted a refreshed graph")
	}
	for i := 0; i < 50; i++ {
		now += int64(rng.Intn(300))
		cb.Offer(&Post{ID: uint64(90_000 + i), Author: int32(rng.Intn(nAuthors)), Time: now, FP: simhash.Fingerprint(rng.Uint64())})
	}
}
