package core

import (
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/metrics"
)

// TestDecisionLatencyObservesEveryDecision pins the §6 instrumentation
// contract: every decision an algorithm instance makes is one observation of
// its Decisions histogram, so Decisions.Count == Accepted + Rejected on every
// solver, whichever path the decision took. The stream hits each early
// return: the empty window, a covered post, an author outside the instance's
// subscription set (outside the graph for the multi-user solvers), and a gap
// longer than λt that prunes the window before deciding.
func TestDecisionLatencyObservesEveryDecision(t *testing.T) {
	// Authors 0-1-2 form a path, 3-4 a pair, 5 is isolated.
	g := pairGraph(6, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{3, 4})
	th := Thresholds{LambdaC: 3, LambdaT: 100, LambdaA: 0.7}
	indexed := th
	indexed.Index = IndexOn
	th.Index = IndexOff
	subs := []int32{0, 1, 2, 3, 4} // author 5 is unknown to the single-user bins

	stream := []*Post{
		{ID: 1, Author: 0, Time: 10, FP: 0x0},     // empty window: emitted
		{ID: 2, Author: 1, Time: 20, FP: 0x1},     // covered by post 1
		{ID: 3, Author: 5, Time: 30, FP: 0x0},     // unknown to the single-user bins
		{ID: 4, Author: 3, Time: 40, FP: 0xFF00},  // emitted
		{ID: 5, Author: 0, Time: 500, FP: 0x0},    // window pruned, then emitted
		{ID: 6, Author: 4, Time: 510, FP: 0xFF01}, // post 4 evicted: emitted
		{ID: 7, Author: 1, Time: 520, FP: 0x3},    // covered by post 5
	}
	// The multi-user solvers also see authors outside the graph; they route
	// such posts to no instance, so no decision is made or observed.
	multiStream := append([]*Post{
		{ID: 100, Author: -1, Time: 5, FP: 0x0},
		{ID: 101, Author: 6, Time: 5, FP: 0x0},
	}, stream...)

	check := func(t *testing.T, c *metrics.Counters) {
		t.Helper()
		if c.Rejected == 0 || c.Evictions == 0 {
			t.Fatalf("stream missed a path: %d rejected, %d evictions", c.Rejected, c.Evictions)
		}
		if got, want := c.Decisions.Count, c.Accepted+c.Rejected; got != want {
			t.Fatalf("Decisions.Count = %d, want Accepted+Rejected = %d (%d+%d)", got, want, c.Accepted, c.Rejected)
		}
	}

	singles := []struct {
		name string
		d    Diversifier
	}{
		{"UniBin-IndexOff", NewUniBin(g.Induced(subs), th)},
		{"UniBin-IndexOn", NewUniBin(g.Induced(subs), indexed)},
		{"NeighborBin", NewNeighborBin(g.Induced(subs), th)},
		{"CliqueBin", NewCliqueBin(authorsim.GreedyCliqueCover(g, subs), th)},
		{"ReferenceUniBin", NewReferenceUniBin(g.Induced(subs), th)},
		{"ReferenceNeighborBin", NewReferenceNeighborBin(g.Induced(subs), th)},
		{"ReferenceCliqueBin", NewReferenceCliqueBin(authorsim.GreedyCliqueCover(g, subs), th)},
	}
	for _, tc := range singles {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range stream {
				tc.d.Offer(p)
			}
			check(t, tc.d.Counters())
		})
	}

	users := [][]int32{{0, 1, 2}, {1, 2, 3, 4}, {5}, {0, 3}}
	var multis []MultiDiversifier
	for _, alg := range []Algorithm{AlgUniBin, AlgNeighborBin, AlgCliqueBin} {
		m, err := NewMultiUser(alg, g, users, th)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSharedMultiUser(alg, g, users, th)
		if err != nil {
			t.Fatal(err)
		}
		multis = append(multis, m, s)
	}
	custom, err := NewCustomMultiUser(AlgUniBin, g, users, []Thresholds{th, th, th, th})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewSharedMultiUser(AlgUniBin, g, users, th)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := NewAdaptiveMultiUser(inner, g, th, AdaptivePolicy{
		BudgetPosts: 1, WindowMillis: 50, MaxLambdaC: 6, MaxLambdaT: 200, StepLambdaC: 1, StepLambdaT: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range append(multis, custom, adaptive) {
		t.Run(md.Name(), func(t *testing.T) {
			for _, p := range multiStream {
				md.Offer(p)
			}
			check(t, md.Counters())
		})
	}
}
