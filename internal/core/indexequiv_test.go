package core

import (
	"math/rand"
	"slices"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/simhash"
	"firehose/internal/simindex"
)

// edgeScenario builds a random graph plus a stream whose timestamps advance
// in multiples of step, so that with λt chosen as a multiple of step the
// prune cutoff (p.Time - λt) lands exactly on stored timestamps all the
// time: the inclusive window edge (distance == λt stays, > λt evicts) is
// exercised on nearly every Offer rather than by luck. clustered selects the
// fingerprint model: near a few bases (content coverage fires at small λc)
// or uniform over all 64-bit values (coverage is rare, windows grow long).
func edgeScenario(rng *rand.Rand, nAuthors, nPosts int, step int64, clustered bool) (*authorsim.Graph, []*Post) {
	var pairs []authorsim.SimPair
	for a := int32(0); a < int32(nAuthors); a++ {
		for b := a + 1; b < int32(nAuthors); b++ {
			if rng.Float64() < 0.3 {
				pairs = append(pairs, authorsim.SimPair{A: a, B: b})
			}
		}
	}
	g := authorsim.NewGraph(nAuthors, pairs, 0.7)

	bases := make([]simhash.Fingerprint, 5)
	for i := range bases {
		bases[i] = simhash.Fingerprint(rng.Uint64())
	}
	posts := make([]*Post, nPosts)
	now := int64(0)
	for i := range posts {
		// Delta 0 keeps simultaneous posts in play; the ×step quantization
		// makes cutoff == oldest-entry-time collisions routine.
		now += step * int64(rng.Intn(4))
		var fp simhash.Fingerprint
		if clustered {
			fp = bases[rng.Intn(len(bases))]
			for k := rng.Intn(7); k > 0; k-- {
				fp ^= 1 << uint(rng.Intn(64))
			}
		} else {
			fp = simhash.Fingerprint(rng.Uint64())
		}
		posts[i] = &Post{
			ID:     uint64(i + 1),
			Author: int32(rng.Intn(nAuthors)),
			Time:   now,
			FP:     fp,
		}
	}
	return g, posts
}

// policyInvariants projects the counters that must be byte-identical under
// every index policy: the index is an acceleration structure, so decisions,
// logical storage, and eviction behavior may not depend on it. Comparisons
// is deliberately absent — it counts window entries visited on the exact
// path and bucket entries probed on the indexed path.
func policyInvariants(d Diversifier) [5]uint64 {
	c := d.Counters()
	return [5]uint64{c.Accepted, c.Rejected, c.Insertions, c.Evictions, uint64(c.StoredPeak)}
}

// TestIndexDecisionEquivalence is the index promotion's correctness bar:
// for every bin algorithm, every feasible index policy must produce the
// decision sequence of the exact scan — post by post — across random λc in
// [2,20], clustered and uniform fingerprint streams, and prune boundaries
// landing exactly on λt edges. Where λc is index-infeasible (λc > 6, the
// Section 3 regime), IndexOn must instead be rejected by Validate.
func TestIndexDecisionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 24; trial++ {
		nAuthors := 3 + rng.Intn(15)
		step := int64(1 + rng.Intn(40))
		clustered := trial%2 == 0
		g, posts := edgeScenario(rng, nAuthors, 400, step, clustered)
		lc := 2 + rng.Intn(19) // [2,20]
		th := Thresholds{
			LambdaC: lc,
			LambdaT: step * int64(1+rng.Intn(30)), // exact multiple: cutoff hits stored times
			LambdaA: 0.7,
		}
		_, feasible := simindex.AutoParams(lc)

		onTh := th
		onTh.Index = IndexOn
		if err := onTh.Validate(); feasible != (err == nil) {
			t.Fatalf("trial %d: λc=%d feasible=%v but Validate(IndexOn) = %v", trial, lc, feasible, err)
		}

		policies := []IndexPolicy{IndexAuto}
		if feasible {
			policies = append(policies, IndexOn)
		}
		authors := allAuthorIDs(nAuthors)
		builders := []struct {
			name string
			mk   func(Thresholds) Diversifier
		}{
			{"UniBin", func(th Thresholds) Diversifier { return NewUniBin(g, th) }},
			{"NeighborBin", func(th Thresholds) Diversifier { return NewNeighborBin(g, th) }},
			{"CliqueBin", func(th Thresholds) Diversifier {
				return NewCliqueBin(authorsim.GreedyCliqueCover(g, authors), th)
			}},
		}
		for _, b := range builders {
			offTh := th
			offTh.Index = IndexOff
			exact := b.mk(offTh)
			others := make([]Diversifier, len(policies))
			for i, pol := range policies {
				pth := th
				pth.Index = pol
				others[i] = b.mk(pth)
			}
			if feasible {
				if u, ok := others[len(others)-1].(*UniBin); ok && !u.IndexActive() {
					t.Fatalf("trial %d: IndexOn UniBin at λc=%d has no active index", trial, lc)
				}
			}
			for i, p := range posts {
				want := exact.Offer(p)
				for j, d := range others {
					if got := d.Offer(p); got != want {
						t.Fatalf("trial %d %s post %d (λc=%d, %s): %v decided %v, exact scan %v",
							trial, b.name, i, lc, policies[j], policies[j], got, want)
					}
				}
			}
			wantC := policyInvariants(exact)
			for j, d := range others {
				if gotC := policyInvariants(d); gotC != wantC {
					t.Fatalf("trial %d %s (λc=%d, %s): policy-invariant counters diverged: %v vs %v",
						trial, b.name, lc, policies[j], gotC, wantC)
				}
			}
		}

		// S_UniBin's rings carry the same index policy: its marking predicate
		// runs inside simindex.Covered, where one entry may be probed through
		// several tables and a match may cover only some of the post's
		// instances. At an index-feasible λc ≤ 6, IndexOn and IndexAuto must
		// deliver exactly what the exact ring scan delivers, post by post.
		// Many users over a small author set give each author many distinct
		// instances.
		subs := randomSubscriptions(rng, 4+rng.Intn(12), nAuthors)
		sth := th
		sth.LambdaC = 2 + rng.Intn(5)
		sth.Index = IndexOff
		exact, err := NewSharedMultiUser(AlgUniBin, g, subs, sth)
		if err != nil {
			t.Fatal(err)
		}
		sharedPolicies := []IndexPolicy{IndexAuto, IndexOn}
		shared := make([]*SharedMultiUser, len(sharedPolicies))
		for j, pol := range sharedPolicies {
			sth.Index = pol
			if shared[j], err = NewSharedMultiUser(AlgUniBin, g, subs, sth); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range posts {
			want := append([]int32(nil), exact.Offer(p)...)
			for j, s := range shared {
				if got := s.Offer(p); !slices.Equal(got, want) {
					t.Fatalf("trial %d S_UniBin post %d (λc=%d, %s): delivered %v, exact scan %v",
						trial, i, sth.LambdaC, sharedPolicies[j], got, want)
				}
			}
		}
		wantC := policyInvariantsMulti(exact)
		for j, s := range shared {
			if gotC := policyInvariantsMulti(s); gotC != wantC {
				t.Fatalf("trial %d S_UniBin (λc=%d, %s): policy-invariant counters diverged: %v vs %v",
					trial, sth.LambdaC, sharedPolicies[j], gotC, wantC)
			}
		}
	}
}
