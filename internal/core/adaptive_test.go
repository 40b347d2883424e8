package core

import (
	"math/rand"
	"slices"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/simhash"
)

func TestAdaptivePolicyValidate(t *testing.T) {
	base := Thresholds{LambdaC: 18, LambdaT: 30 * 60_000, LambdaA: 0.7}
	good := AdaptivePolicy{
		BudgetPosts: 10, WindowMillis: 60_000,
		MaxLambdaC: 30, MaxLambdaT: 2 * 60 * 60_000,
		StepLambdaC: 2, StepLambdaT: 10 * 60_000,
	}
	if err := good.Validate(base); err != nil {
		t.Fatalf("good policy rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*AdaptivePolicy)
	}{
		{"zero budget", func(p *AdaptivePolicy) { p.BudgetPosts = 0 }},
		{"zero window", func(p *AdaptivePolicy) { p.WindowMillis = 0 }},
		{"negative step", func(p *AdaptivePolicy) { p.StepLambdaC = -1 }},
		{"no steps", func(p *AdaptivePolicy) { p.StepLambdaC = 0; p.StepLambdaT = 0 }},
		{"max λc below baseline", func(p *AdaptivePolicy) { p.MaxLambdaC = 17 }},
		{"max λc beyond simhash", func(p *AdaptivePolicy) { p.MaxLambdaC = simhash.Size + 1 }},
		{"max λt below baseline", func(p *AdaptivePolicy) { p.MaxLambdaT = 60_000 }},
	}
	for _, tc := range cases {
		p := good
		tc.mutate(&p)
		if err := p.Validate(base); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestAdaptivePinnedEquivalence is the controller's correctness bar: with
// the caps pinned to the baseline (MaxLambdaC == λc, MaxLambdaT == λt) the
// effective thresholds can never move, the suppression probe never runs, and
// the wrapped solver's decision sequence must be bit-identical to the bare
// solver's — post by post, across all algorithms, M_* and S_* routing, and
// the same λt-edge-hitting streams the index equivalence suite uses. This is
// strictly stronger than "disabled equals enabled-at-baseline": it proves
// the delegation path adds no decision of its own.
func TestAdaptivePinnedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 16; trial++ {
		nAuthors := 4 + rng.Intn(12)
		step := int64(1 + rng.Intn(40))
		g, posts := edgeScenario(rng, nAuthors, 300, step, trial%2 == 0)
		th := Thresholds{
			LambdaC: 2 + rng.Intn(16),
			LambdaT: step * int64(1+rng.Intn(30)),
			LambdaA: 0.7,
		}
		subs := randomSubscriptions(rng, 1+rng.Intn(6), nAuthors)
		pol := AdaptivePolicy{
			BudgetPosts:  1 + rng.Intn(3),
			WindowMillis: step * int64(1+rng.Intn(10)),
			MaxLambdaC:   th.LambdaC, // pinned: tightening has no headroom
			MaxLambdaT:   th.LambdaT,
			StepLambdaC:  1,
			StepLambdaT:  step,
		}
		for _, alg := range []Algorithm{AlgUniBin, AlgNeighborBin, AlgCliqueBin} {
			alg := alg
			builders := []struct {
				name string
				mk   func() (MultiDiversifier, error)
			}{
				{"M", func() (MultiDiversifier, error) { return NewMultiUser(alg, g, subs, th) }},
				{"S", func() (MultiDiversifier, error) { return NewSharedMultiUser(alg, g, subs, th) }},
			}
			for _, b := range builders {
				bare, err := b.mk()
				if err != nil {
					t.Fatal(err)
				}
				inner, err := b.mk()
				if err != nil {
					t.Fatal(err)
				}
				wrapped, err := NewAdaptiveMultiUser(inner, g, th, pol)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range posts {
					want := slices.Clone(bare.Offer(p))
					got := wrapped.Offer(p)
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d %s_%v post %d: wrapped delivered %v, bare %v",
							trial, b.name, alg, i, got, want)
					}
				}
				if n := wrapped.Suppressed(); n != 0 {
					t.Fatalf("trial %d %s_%v: pinned controller suppressed %d deliveries", trial, b.name, alg, n)
				}
				want := policyInvariantsMulti(bare)
				if got := policyInvariantsMulti(wrapped); got != want {
					t.Fatalf("trial %d %s_%v: counters diverged: %v vs %v", trial, b.name, alg, got, want)
				}
			}
		}
	}
}

func policyInvariantsMulti(d MultiDiversifier) [5]uint64 {
	c := d.Counters()
	return [5]uint64{c.Accepted, c.Rejected, c.Insertions, c.Evictions, uint64(c.StoredPeak)}
}

// floodPosts emits identical-fingerprint posts from one author spaced just
// past the baseline λt, so the bare solver accepts every one — the shape the
// controller exists to regulate.
func floodPosts(n int, spacing int64, author int32) []*Post {
	posts := make([]*Post, n)
	for i := range posts {
		posts[i] = &Post{
			ID:     uint64(i + 1),
			Author: author,
			Time:   int64(i) * spacing,
			FP:     simhash.Fingerprint(0xDEADBEEF),
		}
	}
	return posts
}

// TestAdaptiveConvergesUnderFlood pins the budget semantics end to end: a
// sustained over-budget flood tightens λt until the per-window delivery rate
// falls to the budget, and a subsequent quiet stretch relaxes the effective
// thresholds back to the configured baseline.
func TestAdaptiveConvergesUnderFlood(t *testing.T) {
	g := authorsim.NewGraph(1, nil, 0.7)
	th := Thresholds{LambdaC: 4, LambdaT: 1_000, LambdaA: 0.7}
	inner, err := NewMultiUser(AlgUniBin, g, [][]int32{{0}}, th)
	if err != nil {
		t.Fatal(err)
	}
	pol := AdaptivePolicy{
		BudgetPosts:  2,
		WindowMillis: 60_000,
		MaxLambdaC:   th.LambdaC,
		MaxLambdaT:   60 * 60_000,
		StepLambdaT:  30_000,
	}
	a, err := NewAdaptiveMultiUser(inner, g, th, pol)
	if err != nil {
		t.Fatal(err)
	}

	// 20 windows of flood: one post every 1.5s, all covered at any λt above
	// the 1.5s spacing.
	const spacing = 1_500
	perWindow := map[int64]int{}
	var lastTime int64
	for _, p := range floodPosts(800, spacing, 0) {
		lastTime = p.Time
		if len(a.Offer(p)) > 0 {
			perWindow[p.Time/pol.WindowMillis]++
		}
	}
	first, last := perWindow[0], perWindow[lastTime/pol.WindowMillis]
	if first <= pol.BudgetPosts {
		t.Fatalf("first window delivered %d, expected an over-budget flood", first)
	}
	if last > pol.BudgetPosts {
		t.Fatalf("delivery rate did not converge into budget: last window delivered %d > %d", last, pol.BudgetPosts)
	}
	if a.Suppressed() == 0 {
		t.Fatal("no deliveries suppressed during the flood")
	}
	states := a.UserStates()
	if len(states) != 1 || states[0].User != 0 {
		t.Fatalf("unexpected user states %+v", states)
	}
	if states[0].LambdaT <= th.LambdaT {
		t.Fatalf("effective λt %d did not tighten above baseline %d", states[0].LambdaT, th.LambdaT)
	}

	// Quiet stretch: one distinct post per several windows relaxes λt one
	// step per closed window, all the way back to the baseline floor.
	rng := rand.New(rand.NewSource(7))
	tquiet := lastTime
	for i := 0; i < 200; i++ {
		tquiet += 3 * pol.WindowMillis
		a.Offer(&Post{
			ID:     uint64(10_000 + i),
			Author: 0,
			Time:   tquiet,
			FP:     simhash.Fingerprint(rng.Uint64()),
		})
	}
	if lt := a.UserStates()[0].LambdaT; lt != th.LambdaT {
		t.Fatalf("quiet stream left effective λt at %d, want baseline %d", lt, th.LambdaT)
	}
}

// TestAdaptiveSuppressionIsSubset checks the one-sided contract on a stream
// where the controller does act: every adaptive delivery is also a bare
// delivery (the controller only withholds), and per-user timelines stay
// deduplicated under the effective thresholds.
func TestAdaptiveSuppressionIsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	nAuthors := 10
	g, posts := edgeScenario(rng, nAuthors, 600, 500, true)
	th := Thresholds{LambdaC: 3, LambdaT: 2_000, LambdaA: 0.7}
	subs := randomSubscriptions(rng, 5, nAuthors)
	bare, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptiveMultiUser(inner, g, th, AdaptivePolicy{
		BudgetPosts:  1,
		WindowMillis: 4_000,
		MaxLambdaC:   10,
		MaxLambdaT:   20_000,
		StepLambdaC:  2,
		StepLambdaT:  2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range posts {
		want := slices.Clone(bare.Offer(p))
		for _, u := range a.Offer(p) {
			if !slices.Contains(want, u) {
				t.Fatalf("post %d: adaptive delivered to user %d, bare did not", i, u)
			}
		}
	}
	if a.Suppressed() == 0 {
		t.Fatal("scenario too tame: controller never acted, subset check is vacuous")
	}
}
