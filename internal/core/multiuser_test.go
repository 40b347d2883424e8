package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/simhash"
)

// randomSubscriptions gives each of nUsers a random non-empty author subset.
func randomSubscriptions(rng *rand.Rand, nUsers, nAuthors int) [][]int32 {
	subs := make([][]int32, nUsers)
	for u := range subs {
		for a := 0; a < nAuthors; a++ {
			if rng.Float64() < 0.4 {
				subs[u] = append(subs[u], int32(a))
			}
		}
		if len(subs[u]) == 0 {
			subs[u] = []int32{int32(rng.Intn(nAuthors))}
		}
	}
	return subs
}

// timelinesOf replays the stream through a MultiDiversifier and collects the
// per-user timeline of post ids.
func timelinesOf(md MultiDiversifier, posts []*Post, nUsers int) [][]uint64 {
	tl := make([][]uint64, nUsers)
	for _, p := range posts {
		for _, u := range md.Offer(p) {
			tl[u] = append(tl[u], p.ID)
		}
	}
	return tl
}

// clusteredScenario builds what the bench graph has and a single dense
// random graph lacks: several global components (dense clusters plus
// isolated authors), many distinct instances per author (users follow random
// subsets of a cluster, so one author sits in differently shaped induced
// components), and users who follow a single author of a large cluster. The
// stream's fingerprints cluster around a few bases so coverage fires.
func clusteredScenario(rng *rand.Rand, nPosts int) (*authorsim.Graph, []*Post, [][]int32) {
	var pairs []authorsim.SimPair
	var clusters [][]int32
	n := int32(0)
	for c := 2 + rng.Intn(3); c > 0; c-- {
		size := int32(3 + rng.Intn(8))
		var members []int32
		for a := n; a < n+size; a++ {
			members = append(members, a)
			for b := a + 1; b < n+size; b++ {
				if rng.Float64() < 0.45 {
					pairs = append(pairs, authorsim.SimPair{A: a, B: b})
				}
			}
		}
		clusters = append(clusters, members)
		n += size
	}
	n += int32(rng.Intn(4)) // isolated authors
	g := authorsim.NewGraph(int(n), pairs, 0.7)

	subs := make([][]int32, 4+rng.Intn(12))
	for u := range subs {
		switch rng.Intn(3) {
		case 0: // one author of the largest cluster
			big := clusters[0]
			for _, c := range clusters {
				if len(c) > len(big) {
					big = c
				}
			}
			subs[u] = []int32{big[rng.Intn(len(big))]}
		case 1: // a random subset of one cluster
			c := clusters[rng.Intn(len(clusters))]
			for _, a := range c {
				if rng.Float64() < 0.6 {
					subs[u] = append(subs[u], a)
				}
			}
		default: // a random subset of everything
			for a := int32(0); a < n; a++ {
				if rng.Float64() < 0.35 {
					subs[u] = append(subs[u], a)
				}
			}
		}
		if len(subs[u]) == 0 {
			subs[u] = []int32{int32(rng.Intn(int(n)))}
		}
	}

	bases := make([]simhash.Fingerprint, 5)
	for i := range bases {
		bases[i] = simhash.Fingerprint(rng.Uint64())
	}
	posts := make([]*Post, nPosts)
	now := int64(0)
	for i := range posts {
		now += int64(rng.Intn(40))
		fp := bases[rng.Intn(len(bases))]
		for k := rng.Intn(7); k > 0; k-- {
			fp ^= 1 << uint(rng.Intn(64))
		}
		posts[i] = &Post{ID: uint64(i + 1), Author: int32(rng.Intn(int(n))), Time: now, FP: fp}
	}
	return g, posts, subs
}

// perInstance is the executable specification of an S_* solver: one
// single-user diversifier per distinct shared instance (a user's induced
// component, deduplicated by author set), built independently of
// SharedMultiUser. Its deliveries are the sorted union of the subscribers of
// the instances that accept.
type perInstance struct {
	insts []*specInstance
}

type specInstance struct {
	d     Diversifier
	in    map[int32]bool
	users []int32
}

func newPerInstance(t *testing.T, alg Algorithm, g *authorsim.Graph, subs [][]int32, th Thresholds) *perInstance {
	t.Helper()
	r := &perInstance{}
	byKey := map[string]*specInstance{}
	for u, s := range subs {
		for _, comp := range g.InducedComponents(s) {
			key := fmt.Sprint(comp) // comp is sorted
			in, ok := byKey[key]
			if !ok {
				d, err := newRoutedDiversifier(alg, g, comp, th)
				if err != nil {
					t.Fatal(err)
				}
				in = &specInstance{d: d, in: map[int32]bool{}}
				for _, a := range comp {
					in.in[a] = true
				}
				byKey[key] = in
				r.insts = append(r.insts, in)
			}
			in.users = append(in.users, int32(u))
		}
	}
	return r
}

func (r *perInstance) Offer(p *Post) []int32 {
	out := r.concat(p)
	slices.Sort(out)
	return out
}

// concat offers p to every instance containing its author and concatenates
// the accepting instances' users in instance order, unsorted.
func (r *perInstance) concat(p *Post) []int32 {
	var out []int32
	for _, in := range r.insts {
		if in.in[p.Author] && in.d.Offer(p) {
			out = append(out, in.users...)
		}
	}
	return out
}

// SetGraph swaps every (UniBin) instance's graph, keeping the instances.
func (r *perInstance) SetGraph(g *authorsim.Graph) {
	for _, in := range r.insts {
		in.d.(*UniBin).SetGraph(g)
	}
}

// totals returns the decision totals two ways: summed per instance (what an
// S_* solver's Accepted/Rejected must equal) and weighted by each instance's
// subscriber count (what M_*'s per-user Accepted/Rejected must equal).
func (r *perInstance) totals() (acc, rej, userAcc, userRej uint64) {
	for _, in := range r.insts {
		c, n := in.d.Counters(), uint64(len(in.users))
		acc, rej = acc+c.Accepted, rej+c.Rejected
		userAcc, userRej = userAcc+n*c.Accepted, userRej+n*c.Rejected
	}
	return acc, rej, userAcc, userRej
}

// instanceDecisions replays the stream through the per-instance
// specification and returns its decision totals (see perInstance.totals).
func instanceDecisions(t *testing.T, alg Algorithm, g *authorsim.Graph, subs [][]int32, th Thresholds, posts []*Post) (acc, rej, userAcc, userRej uint64) {
	t.Helper()
	r := newPerInstance(t, alg, g, subs, th)
	for _, p := range posts {
		r.Offer(p)
	}
	return r.totals()
}

func TestSharedMatchesIndependentPerUser(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, alg := range []Algorithm{AlgUniBin, AlgNeighborBin, AlgCliqueBin} {
		t.Run(alg.String(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				var g *authorsim.Graph
				var posts []*Post
				var subs [][]int32
				if trial%2 == 0 {
					nAuthors := 4 + rng.Intn(15)
					g, posts = randomScenario(rng, nAuthors, 200, 0.25)
					subs = randomSubscriptions(rng, 2+rng.Intn(8), nAuthors)
				} else {
					g, posts, subs = clusteredScenario(rng, 300)
				}
				nUsers := len(subs)
				th := Thresholds{LambdaC: 6, LambdaT: 800, LambdaA: 0.7}

				m, err := NewMultiUser(alg, g, subs, th)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSharedMultiUser(alg, g, subs, th)
				if err != nil {
					t.Fatal(err)
				}
				mt := timelinesOf(m, posts, nUsers)
				st := timelinesOf(s, posts, nUsers)
				for u := range mt {
					if !reflect.DeepEqual(mt[u], st[u]) {
						t.Fatalf("trial %d user %d: M timeline %v != S timeline %v",
							trial, u, mt[u], st[u])
					}
				}
				acc, rej, userAcc, userRej := instanceDecisions(t, alg, g, subs, th, posts)
				if sc := s.Counters(); sc.Accepted != acc || sc.Rejected != rej {
					t.Fatalf("trial %d: S decided %d/%d (accepted/rejected), its instances %d/%d",
						trial, sc.Accepted, sc.Rejected, acc, rej)
				}
				if mc := m.Counters(); mc.Accepted != userAcc || mc.Rejected != userRej {
					t.Fatalf("trial %d: M decided %d/%d, S's instances weighted by subscribers %d/%d",
						trial, mc.Accepted, mc.Rejected, userAcc, userRej)
				}
			}
		})
	}
}

// TestSharedMatchesSingleUserOracle: each user's M-SPSD timeline must equal
// running single-user SPSD on the user's own sub-stream.
func TestSharedMatchesSingleUserOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		var g *authorsim.Graph
		var posts []*Post
		var subs [][]int32
		if trial == 0 {
			nAuthors := 12
			g, posts = randomScenario(rng, nAuthors, 300, 0.3)
			subs = randomSubscriptions(rng, 5, nAuthors)
		} else {
			g, posts, subs = clusteredScenario(rng, 300)
		}
		th := Thresholds{LambdaC: 7, LambdaT: 600, LambdaA: 0.7}

		s, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		got := timelinesOf(s, posts, len(subs))

		var deliveries uint64
		for u := range subs {
			subscribed := make(map[int32]bool)
			for _, a := range subs[u] {
				subscribed[a] = true
			}
			var userStream []*Post
			for _, p := range posts {
				if subscribed[p.Author] {
					userStream = append(userStream, p)
				}
			}
			want := idsOf(bruteForce(userStream, th, g.Induced(subs[u])))
			if !reflect.DeepEqual(got[u], want) {
				t.Fatalf("trial %d user %d: shared timeline %v != oracle %v", trial, u, got[u], want)
			}
			deliveries += uint64(len(want))
		}
		acc, rej, userAcc, _ := instanceDecisions(t, AlgUniBin, g, subs, th, posts)
		if sc := s.Counters(); sc.Accepted != acc || sc.Rejected != rej {
			t.Fatalf("trial %d: S decided %d/%d (accepted/rejected), its instances %d/%d",
				trial, sc.Accepted, sc.Rejected, acc, rej)
		}
		if userAcc != deliveries {
			t.Fatalf("trial %d: instance acceptances weighted by subscribers %d != oracle deliveries %d",
				trial, userAcc, deliveries)
		}
	}
}

func TestSharedDeduplicatesComponents(t *testing.T) {
	// Authors 0-1-2 form one component, 3-4 another, 5 isolated.
	g := pairGraph(6, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{3, 4})
	th := Thresholds{LambdaC: 18, LambdaT: 1000, LambdaA: 0.7}
	subs := [][]int32{
		{0, 1, 2, 3, 4}, // user 0: components {0,1,2}, {3,4}
		{0, 1, 2, 5},    // user 1: components {0,1,2}, {5} — shares {0,1,2}
		{0, 2},          // user 2: components {0}, {2} — {0,1,2} minus the bridge 1 splits
	}
	s, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct components: {0,1,2}, {3,4}, {5}, {0}, {2} → 5 instances,
	// versus 6 total components across users.
	if got := s.NumComponents(); got != 5 {
		t.Fatalf("NumComponents = %d, want 5", got)
	}
}

func TestSharedDeliveryRouting(t *testing.T) {
	g := pairGraph(3, [2]int32{0, 1}) // 0-1 similar, 2 isolated
	th := Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	subs := [][]int32{
		{0, 1}, // user 0
		{0, 1}, // user 1: identical → shares the component instance
		{2},    // user 2
	}
	s, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumComponents() != 2 {
		t.Fatalf("NumComponents = %d, want 2", s.NumComponents())
	}
	// Post by author 0 is delivered to users 0 and 1, not 2.
	got := s.Offer(&Post{ID: 1, Author: 0, Time: 1, FP: 0})
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("delivered = %v, want [0 1]", got)
	}
	// Near-duplicate by similar author 1 is covered — delivered to nobody.
	got = s.Offer(&Post{ID: 2, Author: 1, Time: 2, FP: 1})
	if len(got) != 0 {
		t.Fatalf("covered post delivered to %v", got)
	}
	// Post by isolated author 2 goes only to user 2.
	got = s.Offer(&Post{ID: 3, Author: 2, Time: 3, FP: 0})
	if !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("delivered = %v, want [2]", got)
	}
	// A post by an author nobody subscribes to is delivered nowhere.
	if got := s.Offer(&Post{ID: 4, Author: 2, Time: 4, FP: ^Fingerprint("x")}); len(got) > 1 {
		t.Fatalf("unexpected delivery %v", got)
	}
}

func TestSharedSavesWorkOverIndependent(t *testing.T) {
	// Many users with identical subscriptions: S_UniBin runs one instance,
	// M_UniBin runs one per user — comparisons and copies scale with users.
	rng := rand.New(rand.NewSource(55))
	g, posts := randomScenario(rng, 10, 500, 0.3)
	authors := allAuthorIDs(10)
	subs := make([][]int32, 20)
	for u := range subs {
		subs[u] = authors
	}
	th := Thresholds{LambdaC: 6, LambdaT: 700, LambdaA: 0.7}

	m, _ := NewMultiUser(AlgUniBin, g, subs, th)
	s, _ := NewSharedMultiUser(AlgUniBin, g, subs, th)
	for _, p := range posts {
		m.Offer(p)
		s.Offer(p)
	}
	mc, sc := m.Counters(), s.Counters()
	if sc.Comparisons >= mc.Comparisons {
		t.Fatalf("S comparisons %d should be < M comparisons %d", sc.Comparisons, mc.Comparisons)
	}
	if sc.StoredPeak >= mc.StoredPeak {
		t.Fatalf("S peak %d should be < M peak %d", sc.StoredPeak, mc.StoredPeak)
	}
	if sc.Comparisons*10 > mc.Comparisons {
		t.Fatalf("with 20 identical users sharing should cut work ~20x: S=%d M=%d",
			sc.Comparisons, mc.Comparisons)
	}
}

func TestMultiUserNames(t *testing.T) {
	g := pairGraph(2, [2]int32{0, 1})
	th := Thresholds{LambdaC: 3, LambdaT: 10, LambdaA: 0.5}
	subs := [][]int32{{0, 1}}
	for alg, wantM := range map[Algorithm]string{
		AlgUniBin:      "M_UniBin",
		AlgNeighborBin: "M_NeighborBin",
		AlgCliqueBin:   "M_CliqueBin",
	} {
		m, err := NewMultiUser(alg, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != wantM {
			t.Fatalf("Name = %q, want %q", m.Name(), wantM)
		}
		s, err := NewSharedMultiUser(alg, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		if want := "S_" + alg.String(); s.Name() != want {
			t.Fatalf("Name = %q, want %q", s.Name(), want)
		}
	}
}

func TestNewDiversifierErrors(t *testing.T) {
	g := pairGraph(2, [2]int32{0, 1})
	if _, err := NewDiversifier(AlgUniBin, g, []int32{0}, Thresholds{LambdaC: -1}); err == nil {
		t.Fatal("expected threshold validation error")
	}
	if _, err := NewDiversifier(Algorithm(42), g, []int32{0}, Thresholds{LambdaC: 18}); err == nil {
		t.Fatal("expected unknown algorithm error")
	}
	if _, err := NewMultiUser(Algorithm(42), g, [][]int32{{0}}, Thresholds{}); err == nil {
		t.Fatal("expected error from MultiUser with bad algorithm")
	}
	if _, err := NewSharedMultiUser(Algorithm(42), g, [][]int32{{0}}, Thresholds{}); err == nil {
		t.Fatal("expected error from SharedMultiUser with bad algorithm")
	}
	// Parameters are validated even when no instance gets built: a user
	// without subscriptions, or no users at all.
	bad := Thresholds{LambdaC: 65}
	good := Thresholds{LambdaC: 3, LambdaT: 10, LambdaA: 0.7}
	for _, alg := range []Algorithm{AlgUniBin, AlgNeighborBin, AlgCliqueBin} {
		if _, err := NewSharedMultiUser(alg, g, [][]int32{{}}, bad); err == nil {
			t.Fatalf("S_%v without instances accepted LambdaC 65", alg)
		}
		if _, err := NewMultiUser(alg, g, nil, bad); err == nil {
			t.Fatalf("M_%v without users accepted LambdaC 65", alg)
		}
	}
	if _, err := NewSharedMultiUser(Algorithm(42), g, [][]int32{{}}, good); err == nil {
		t.Fatal("S_* without instances accepted an unknown algorithm")
	}
	if _, err := NewMultiUser(Algorithm(42), g, nil, good); err == nil {
		t.Fatal("M_* without users accepted an unknown algorithm")
	}
	if _, err := NewCustomMultiUser(Algorithm(42), g, nil, nil); err == nil {
		t.Fatal("Custom_M without users accepted an unknown algorithm")
	}
}

func TestUserCounters(t *testing.T) {
	g := pairGraph(2, [2]int32{0, 1})
	th := Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	m, err := NewMultiUser(AlgUniBin, g, [][]int32{{0}, {0, 1}}, th)
	if err != nil {
		t.Fatal(err)
	}
	m.Offer(&Post{ID: 1, Author: 1, Time: 1, FP: 0})
	// Only user 1's instance sees the post: 2 would mean user 0's instance
	// (not subscribed to author 1) processed it too.
	if got := m.Counters().Processed(); got != 1 {
		t.Fatalf("instances processed the post %d times, want 1", got)
	}
}

func ExampleSharedMultiUser_Offer() {
	g := authorsim.NewGraph(2, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := Thresholds{LambdaC: 3, LambdaT: 60_000, LambdaA: 0.7}
	s, _ := NewSharedMultiUser(AlgUniBin, g, [][]int32{{0, 1}, {0, 1}}, th)
	fmt.Println(s.Offer(NewPost(1, 0, 0, "breaking news: ferry sinks off coast")))
	fmt.Println(s.Offer(NewPost(2, 1, 1000, "breaking news: ferry sinks off coast")))
	// Output:
	// [0 1]
	// []
}
