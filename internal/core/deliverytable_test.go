package core

import (
	"math/rand"
	"slices"
	"testing"

	"firehose/internal/authorsim"
)

// newPerUserReference is the executable specification of the M_* and
// Custom_M layouts: one independent diversifier per user over the user's
// whole subscription set, at the user's thresholds.
func newPerUserReference(t *testing.T, alg Algorithm, g *authorsim.Graph, subs [][]int32, th func(u int) Thresholds) *perInstance {
	t.Helper()
	r := &perInstance{}
	for u, authors := range subs {
		d, err := newRoutedDiversifier(alg, g, authors, th(u))
		if err != nil {
			t.Fatal(err)
		}
		in := &specInstance{d: d, in: map[int32]bool{}, users: []int32{int32(u)}}
		for _, a := range authors {
			in.in[a] = true
		}
		r.insts = append(r.insts, in)
	}
	return r
}

// interleavedScenario is a graph, subscriptions and stream in which author
// 0's two instances feed interleaved users — {0, 1} feeds users 0 and 2,
// {0} feeds users 1 and 3 — so concatenating their lists is not sorted.
// Post 2 by author 0 is covered in {0, 1} by post 1 of the similar author 1
// but emits in {0}: a delivery from one instance of two.
func interleavedScenario() (*authorsim.Graph, [][]int32, []*Post) {
	g := pairGraph(3, [2]int32{0, 1})
	subs := [][]int32{{0, 1}, {0}, {0, 1, 2}, {0}}
	posts := []*Post{
		{ID: 1, Author: 1, Time: 10, FP: 0},
		{ID: 2, Author: 0, Time: 20, FP: 1},
		{ID: 3, Author: 0, Time: 30, FP: 0xFFFFFFFFFFFFFFFF},
		{ID: 4, Author: 2, Time: 40, FP: 0},
	}
	return g, subs, posts
}

// TestDeliveryTableMatchesConcatSort checks every layout's delivered lists
// against the concat-and-sort reference: the accepting instances' user
// lists, concatenated and sorted. The S_* layouts filter a per-author table
// instead and the per-user layouts list the accepting instances' ids, so
// neither sorts; both must deliver the same list, post by post. The
// scenarios include authors whose instances feed interleaved users, where
// concatenation alone is out of order.
func TestDeliveryTableMatchesConcatSort(t *testing.T) {
	type scenario struct {
		g     *authorsim.Graph
		subs  [][]int32
		posts []*Post
	}
	rng := rand.New(rand.NewSource(48))
	g, subs, posts := interleavedScenario()
	scenarios := []scenario{{g, subs, posts}}
	for trial := 0; trial < 12; trial++ {
		var sc scenario
		if trial%3 == 0 {
			nAuthors := 4 + rng.Intn(15)
			sc.g, sc.posts = randomScenario(rng, nAuthors, 300, 0.25)
			sc.subs = randomSubscriptions(rng, 2+rng.Intn(10), nAuthors)
		} else {
			sc.g, sc.posts, sc.subs = clusteredScenario(rng, 400)
		}
		scenarios = append(scenarios, sc)
	}
	th := Thresholds{LambdaC: 6, LambdaT: 800, LambdaA: 0.7}
	custom := func(u int) Thresholds {
		return Thresholds{LambdaC: 3 + u%5, LambdaT: 300 + int64(u%4)*250, LambdaA: 0.7}
	}

	// check offers every post to md and ref and fails on the first delivered
	// list that differs. It returns how many decisions the reference's
	// concatenation left out of order.
	check := func(t *testing.T, i int, md MultiDiversifier, ref *perInstance, posts []*Post) (interleaved int) {
		t.Helper()
		for _, p := range posts {
			want := ref.concat(p)
			if !slices.IsSorted(want) {
				interleaved++
			}
			slices.Sort(want)
			if got := md.Offer(p); !slices.Equal(got, want) {
				t.Fatalf("scenario %d post %d (author %d): %s delivered %v, reference %v",
					i, p.ID, p.Author, md.Name(), got, want)
			}
		}
		return interleaved
	}

	for _, alg := range []Algorithm{AlgUniBin, AlgNeighborBin, AlgCliqueBin} {
		t.Run("S_"+alg.String(), func(t *testing.T) {
			interleaved := 0
			for i, sc := range scenarios {
				s, err := NewSharedMultiUser(alg, sc.g, sc.subs, th)
				if err != nil {
					t.Fatal(err)
				}
				n := check(t, i, s, newPerInstance(t, alg, sc.g, sc.subs, th), sc.posts)
				if i == 0 && n == 0 {
					t.Fatal("the interleaved scenario delivered no out-of-order concatenation")
				}
				interleaved += n
			}
			t.Logf("%d decisions with interleaved instance user lists", interleaved)
		})
		t.Run("M_"+alg.String(), func(t *testing.T) {
			for i, sc := range scenarios {
				m, err := NewMultiUser(alg, sc.g, sc.subs, th)
				if err != nil {
					t.Fatal(err)
				}
				check(t, i, m, newPerUserReference(t, alg, sc.g, sc.subs, func(int) Thresholds { return th }), sc.posts)
			}
		})
		t.Run("Custom_M/"+alg.String(), func(t *testing.T) {
			for i, sc := range scenarios {
				ths := make([]Thresholds, len(sc.subs))
				for u := range ths {
					ths[u] = custom(u)
				}
				c, err := NewCustomMultiUser(alg, sc.g, sc.subs, ths)
				if err != nil {
					t.Fatal(err)
				}
				check(t, i, c, newPerUserReference(t, alg, sc.g, sc.subs, custom), sc.posts)
			}
		})
	}
}

// TestSharedRejectsAuthorBeyondSlotRange: the delivery table tags an entry
// with a 16-bit slot, so an S_* solver in which one author belongs to more
// than maxAuthorInstances instances is refused at construction. Authors 0–17
// form a clique, and user u follows author 0 and the authors i+1 for the set
// bits i of u: every user's subscription is a component of its own that
// contains author 0.
func TestSharedRejectsAuthorBeyondSlotRange(t *testing.T) {
	const clique = 18
	var pairs []authorsim.SimPair
	for a := int32(0); a < clique; a++ {
		for b := a + 1; b < clique; b++ {
			pairs = append(pairs, authorsim.SimPair{A: a, B: b})
		}
	}
	g := authorsim.NewGraph(clique, pairs, 0.7)
	for _, n := range []int{maxAuthorInstances, maxAuthorInstances + 1} {
		subs := make([][]int32, n)
		for u := range subs {
			subs[u] = []int32{0}
			for i := int32(0); i < clique-1; i++ {
				if u>>i&1 == 1 {
					subs[u] = append(subs[u], i+1)
				}
			}
		}
		_, err := NewSharedMultiUser(AlgUniBin, g, subs, Thresholds{LambdaC: 3, LambdaT: 100, LambdaA: 0.7})
		if tooMany := n > maxAuthorInstances; (err != nil) != tooMany {
			t.Fatalf("author 0 in %d instances: err = %v, want an error: %v", n, err, tooMany)
		}
	}
}
