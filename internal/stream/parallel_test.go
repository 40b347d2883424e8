package stream

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/simhash"
	"firehose/internal/twittergen"
)

// parallelScenario builds a wired graph + subscriptions + stream.
func parallelScenario(t *testing.T, seed int64, nAuthors int) (*authorsim.Graph, [][]int32, []*core.Post) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sg, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(nAuthors))
	if err != nil {
		t.Fatal(err)
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(sg.Followees), 0.7)
	vocab := twittergen.NewVocab(rand.New(rand.NewSource(seed+1)), 1500)
	gen, err := twittergen.GenerateStream(rand.New(rand.NewSource(seed+2)), sg, g, vocab,
		twittergen.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g, sg.Subscriptions(), gen.Posts
}

// inlineShape stands for the inline engine NewMultiEngine builds in the
// worker-count lists of the equivalence suites.
const inlineShape = 0

// newShape builds one engine shape: the inline engine over a sequential
// solver for inlineShape, that many goroutine workers otherwise.
func newShape(t *testing.T, alg core.Algorithm, g *authorsim.Graph, subs [][]int32, th core.Thresholds, workers int) *ParallelMultiEngine {
	t.Helper()
	if workers == inlineShape {
		md, err := core.NewSharedMultiUser(alg, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		return NewMultiEngine(md).ParallelMultiEngine
	}
	e, err := NewParallelMultiEngine(alg, g, subs, th, workers)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParallelMatchesSequential(t *testing.T) {
	g, subs, posts := parallelScenario(t, 21, 250)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}

	seq, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int32, len(posts))
	for i, p := range posts {
		// Clone: the solver's returned slice is scratch-backed and only valid
		// until the next Offer (the MultiDiversifier aliasing contract).
		want[i] = slices.Clone(seq.Offer(p))
	}
	sc := seq.Counters()

	for _, workers := range []int{4, inlineShape} {
		par := newShape(t, core.AlgUniBin, g, subs, th, workers)
		tickets := make([]*Ticket, len(posts))
		for i, p := range posts {
			tk, err := par.Offer(p)
			if err != nil {
				t.Fatal(err)
			}
			tickets[i] = tk
		}
		par.Close()

		for i := range posts {
			got := tickets[i].Users()
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if !slices.Equal(got, want[i]) {
				t.Fatalf("workers=%d post %d: deliveries differ: %v vs sequential %v",
					workers, posts[i].ID, got, want[i])
			}
		}

		// Counter totals agree (same decisions, same bins, just sharded).
		pc := par.Counters()
		if pc.Accepted != sc.Accepted || pc.Rejected != sc.Rejected {
			t.Fatalf("workers=%d: accept/reject differ: %d/%d vs sequential %d/%d",
				workers, pc.Accepted, pc.Rejected, sc.Accepted, sc.Rejected)
		}
		if pc.Comparisons != sc.Comparisons || pc.Insertions != sc.Insertions {
			t.Fatalf("workers=%d: work differs: %d/%d vs sequential %d/%d",
				workers, pc.Comparisons, pc.Insertions, sc.Comparisons, sc.Insertions)
		}
	}
}

func TestParallelWorkerCounts(t *testing.T) {
	g, subs, _ := parallelScenario(t, 22, 100)
	th := core.Thresholds{LambdaC: 18, LambdaT: 1000, LambdaA: 0.7}
	for _, workers := range []int{1, 2, 8} {
		e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, workers)
		if err != nil {
			t.Fatal(err)
		}
		if e.NumWorkers() != workers {
			t.Fatalf("NumWorkers = %d", e.NumWorkers())
		}
		e.Close()
	}
	if _, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestParallelUnknownAuthor(t *testing.T) {
	g := authorsim.NewGraph(2, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, [][]int32{{0, 1}}, th, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tk, err := e.Offer(&core.Post{ID: 1, Author: 99, Time: 1, FP: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := tk.Users(); len(got) != 0 {
		t.Fatalf("unknown author delivered to %v", got)
	}
}

func TestParallelOfferAfterClose(t *testing.T) {
	g := authorsim.NewGraph(1, nil, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	for _, workers := range []int{1, inlineShape} {
		e := newShape(t, core.AlgUniBin, g, [][]int32{{0}}, th, workers)
		e.Close()
		e.Close() // double close is a no-op
		if _, err := e.Offer(&core.Post{ID: 1, Author: 0, Time: 1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("workers=%d: offer after close: got %v, want ErrClosed", workers, err)
		}
	}
}

func TestParallelComponentAffinity(t *testing.T) {
	// Two posts by similar authors must reach the same worker so the second
	// is pruned — sharding must never split a component.
	g := authorsim.NewGraph(4, []authorsim.SimPair{{A: 0, B: 1}, {A: 2, B: 3}}, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	subs := [][]int32{{0, 1, 2, 3}}
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 2)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := e.Offer(&core.Post{ID: 1, Author: 0, Time: 1, FP: 0})
	t2, _ := e.Offer(&core.Post{ID: 2, Author: 1, Time: 2, FP: 1}) // covered by #1
	t3, _ := e.Offer(&core.Post{ID: 3, Author: 2, Time: 3, FP: 0}) // other component: kept
	e.Close()
	if len(t1.Users()) != 1 || len(t3.Users()) != 1 {
		t.Fatal("fresh posts should be delivered")
	}
	if len(t2.Users()) != 0 {
		t.Fatal("near-duplicate from a similar author must be pruned across workers")
	}
}

// TestParallelSwapMatchesInline: a graph refresh swapped in at a churn point
// mid-stream gives the same per-post decisions on the inline engine and on a
// 2-worker engine — Swap quiesces, so both apply it at the same post — and
// the refresh does change decisions, so the comparison is not vacuous.
func TestParallelSwapMatchesInline(t *testing.T) {
	g, subs, posts := parallelScenario(t, 23, 250)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	// The refresh drops every author's similarity edges, so a near-duplicate
	// from a formerly similar author is no longer covered.
	g2 := g
	for a := int32(0); a < int32(g.NumAuthors()); a++ {
		var err error
		if g2, err = g2.WithUpdatedAuthor(a, nil); err != nil {
			t.Fatal(err)
		}
	}
	churn := len(posts) / 2
	run := func(workers int, swap bool) [][]int32 {
		e := newShape(t, core.AlgUniBin, g, subs, th, workers)
		defer e.Close()
		out := make([][]int32, len(posts))
		for i, p := range posts {
			if swap && i == churn {
				if err := e.Swap(func(md core.MultiDiversifier) core.MultiDiversifier {
					if err := md.(*core.SharedMultiUser).SetGraph(g2); err != nil {
						t.Errorf("SetGraph: %v", err)
					}
					return md
				}); err != nil {
					t.Fatal(err)
				}
			}
			tk, err := e.Offer(p)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = sortedUsers(tk.Users())
		}
		return out
	}
	inline, par := run(inlineShape, true), run(2, true)
	for i := range posts {
		if !slices.Equal(inline[i], par[i]) {
			t.Fatalf("post %d after the swap at %d: inline delivered %v, 2 workers %v", i, churn, inline[i], par[i])
		}
	}
	unswapped := run(inlineShape, false)
	changed := 0
	for i := range posts {
		if !slices.Equal(inline[i], unswapped[i]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the refresh changed no decision")
	}
}

func BenchmarkParallelVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	sg, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(400))
	if err != nil {
		b.Fatal(err)
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(sg.Followees), 0.7)
	subs := sg.Subscriptions()
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	posts := make([]*core.Post, 5000)
	for i := range posts {
		posts[i] = &core.Post{
			ID: uint64(i + 1), Author: int32(rng.Intn(400)),
			Time: int64(i * 10), FP: simhash.Fingerprint(rng.Uint64()),
		}
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			md, _ := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
			for _, p := range posts {
				md.Offer(p)
			}
		}
	})
	b.Run("parallel-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, _ := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 4)
			for _, p := range posts {
				e.Offer(p)
			}
			e.Close()
		}
	})
}
