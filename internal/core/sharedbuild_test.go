package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/metrics"
)

// sharingScenario is a clustered graph and stream with many users who share
// components: each of nUsers takes one of the scenario's few subscription
// sets, some with one random author added, so the instance table sees every
// component many times over many merge chunks.
func sharingScenario(seed int64, nUsers int) (*authorsim.Graph, []*Post, [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	g, posts, base := clusteredScenario(rng, 200)
	subs := make([][]int32, nUsers)
	for u := range subs {
		subs[u] = slices.Clone(base[rng.Intn(len(base))])
		if rng.Intn(3) == 0 {
			subs[u] = append(subs[u], int32(rng.Intn(g.NumAuthors())))
		}
	}
	return g, posts, subs
}

// sequentialInstances is the instance table a sequential build lays out:
// users in order, each user's components in InducedComponents' order, a
// component numbered when first seen. It returns each instance's authors
// and users.
func sequentialInstances(g *authorsim.Graph, subs [][]int32) (authors, users [][]int32) {
	byKey := map[string]int{}
	for u, s := range subs {
		for _, comp := range g.InducedComponents(s) {
			key := fmt.Sprint(comp) // comp is sorted
			i, ok := byKey[key]
			if !ok {
				i = len(authors)
				byKey[key] = i
				authors = append(authors, comp)
				users = append(users, nil)
			}
			users[i] = append(users[i], int32(u))
		}
	}
	return authors, users
}

// checkInstances fails unless s holds exactly the given instances, in that
// order, routes every author to the instances containing it, and lists in
// its delivery table, per author, the users of those instances in ascending
// order, each beside its instance's slot in the author's route.
func checkInstances(t *testing.T, s *SharedMultiUser, authors, users [][]int32) {
	t.Helper()
	if s.NumComponents() != len(authors) {
		t.Fatalf("NumComponents = %d, want %d", s.NumComponents(), len(authors))
	}
	byAuthor := make([][]int32, len(s.authorToComps))
	for i, inst := range s.comps {
		if !slices.Equal(inst.authors, authors[i]) {
			t.Fatalf("instance %d has authors %v, want %v", i, inst.authors, authors[i])
		}
		if int(inst.users) != len(users[i]) {
			t.Fatalf("instance %d (authors %v) feeds %d users, want %d", i, inst.authors, inst.users, len(users[i]))
		}
		for _, a := range authors[i] {
			byAuthor[a] = append(byAuthor[a], int32(i))
		}
	}
	for a := range byAuthor {
		if !slices.Equal(s.authorToComps[a], byAuthor[a]) {
			t.Fatalf("author %d routes to instances %v, want %v", a, s.authorToComps[a], byAuthor[a])
		}
		// The instances' users concatenated in route order, then sorted.
		type entry struct {
			user int32
			slot uint16
		}
		var want []entry
		for slot, i := range byAuthor[a] {
			for _, u := range users[i] {
				want = append(want, entry{u, uint16(slot)})
			}
		}
		slices.SortFunc(want, func(x, y entry) int { return int(x.user - y.user) })
		lo, hi := s.subs.off[a], s.subs.off[a+1]
		got := make([]entry, hi-lo)
		for j := range got {
			got[j] = entry{s.subs.users[lo+j], s.subs.slots[lo+j]}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("author %d's delivery table lists (user, slot) %v, want %v", a, got, want)
		}
	}
}

// decidedSnapshot offers posts to s and returns its checkpoint bytes, with
// the wall-clock decision histograms cleared.
func decidedSnapshot(t *testing.T, s *SharedMultiUser, posts []*Post) []byte {
	t.Helper()
	for _, p := range posts {
		s.Offer(p)
	}
	s.c.Decisions = metrics.Histogram{}
	for _, inst := range s.comps {
		if inst.div != nil {
			inst.div.Counters().Decisions = metrics.Histogram{}
		}
	}
	return snapState(t, s)
}

// TestSharedBuildDeterministic builds every S_* layout over many users who
// share components, 20 times at each of GOMAXPROCS 1, 2 and 4: each build
// must lay out the sequential build's instances in its order and route and
// snapshot the same, however the concurrent component search's chunks
// finish. A hash under which every component collides must change nothing.
func TestSharedBuildDeterministic(t *testing.T) {
	g, posts, subs := sharingScenario(3, 700)
	authors, users := sequentialInstances(g, subs)
	if len(authors) < 10 {
		t.Fatalf("scenario has %d distinct components; want a table worth merging", len(authors))
	}
	th := Thresholds{LambdaC: 6, LambdaT: 400, LambdaA: 0.7}
	for _, alg := range []Algorithm{AlgUniBin, AlgNeighborBin, AlgCliqueBin} {
		t.Run(alg.String(), func(t *testing.T) {
			var want []byte
			build := func(hash func([]int32) uint64) {
				t.Helper()
				s, err := newSharedMultiUser(runtime.GOMAXPROCS(0), alg, g, subs, nil, th, hash)
				if err != nil {
					t.Fatal(err)
				}
				checkInstances(t, s, authors, users)
				got := decidedSnapshot(t, s, posts)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("GOMAXPROCS %d: snapshot differs from the first build's", runtime.GOMAXPROCS(0))
				}
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for range 20 {
					build(hashComponent)
				}
				build(func([]int32) uint64 { return 0 })
			}
		})
	}
}

// TestComponentKey checks the instance table's key: equal components hash
// equal, and sets that differ in length, order or split do not collide.
func TestComponentKey(t *testing.T) {
	if hashComponent([]int32{1, 2, 3}) != hashComponent([]int32{1, 2, 3}) {
		t.Fatal("equal components must hash equal")
	}
	for _, pair := range [][2][]int32{
		{{1, 2}, {1, 2, 3}},
		{{12}, {1, 2}},
		{{1, 2}, {2, 1}},
		{nil, {0}},
	} {
		if hashComponent(pair[0]) == hashComponent(pair[1]) {
			t.Fatalf("%v and %v hash equal", pair[0], pair[1])
		}
	}
}

// TestRestrictedBuildMatchesRestrictedLists: a build over the authors keep
// accepts, filtering each user's list as it goes, lays out, routes and
// snapshots exactly as a build over lists restricted beforehand, for every
// S_* layout, each half of a component split (as a 2-worker parallel
// engine splits) and GOMAXPROCS 1, 2 and 4. An author outside the graph is
// refused only if keep accepts it, with the error of the restricted lists.
func TestRestrictedBuildMatchesRestrictedLists(t *testing.T) {
	g, posts, subs := sharingScenario(5, 700)
	th := Thresholds{LambdaC: 6, LambdaT: 400, LambdaA: 0.7}
	restrict := func(keep func(int32) bool) [][]int32 {
		out := make([][]int32, len(subs))
		for u, list := range subs {
			for _, a := range list {
				if keep(a) {
					out[u] = append(out[u], a)
				}
			}
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, alg := range []Algorithm{AlgUniBin, AlgNeighborBin, AlgCliqueBin} {
		for w := 0; w < 2; w++ {
			keep := func(a int32) bool { return g.ComponentOf(a)%2 == w }
			pre := restrict(keep)
			authors, users := sequentialInstances(g, pre)
			ref, err := newSharedMultiUser(1, alg, g, pre, nil, th, hashComponent)
			if err != nil {
				t.Fatal(err)
			}
			want := decidedSnapshot(t, ref, posts)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				s, err := NewSharedMultiUserOn(procs, alg, g, subs, keep, th)
				if err != nil {
					t.Fatal(err)
				}
				checkInstances(t, s, authors, users)
				if got := decidedSnapshot(t, s, posts); !bytes.Equal(got, want) {
					t.Fatalf("%v, half %d, GOMAXPROCS %d: snapshot differs from the build over restricted lists", alg, w, procs)
				}
			}
		}
	}

	outside := slices.Clone(subs)
	outside[3] = append(slices.Clone(subs[3]), -1, int32(g.NumAuthors()))
	inGraph := func(a int32) bool { return g.Contains(a) }
	if _, err := NewSharedMultiUserOn(2, AlgUniBin, g, outside, inGraph, th); err != nil {
		t.Fatalf("authors keep refuses were validated: %v", err)
	}
	_, want := NewSharedMultiUser(AlgUniBin, g, outside, th)
	_, got := NewSharedMultiUserOn(2, AlgUniBin, g, outside, func(a int32) bool { return a < 0 || inGraph(a) }, th)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("keeping an author outside the graph: error %v, want %v", got, want)
	}
}
