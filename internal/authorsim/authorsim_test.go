package authorsim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewVectorsSortsAndDedups(t *testing.T) {
	v := NewVectors([][]int32{{5, 1, 3, 1, 5}, {}, {2}})
	if got := v.Followees(0); !reflect.DeepEqual(got, []int32{1, 3, 5}) {
		t.Fatalf("Followees(0) = %v", got)
	}
	if got := v.Followees(1); len(got) != 0 {
		t.Fatalf("Followees(1) = %v, want empty", got)
	}
	if v.NumAuthors() != 3 {
		t.Fatalf("NumAuthors = %d", v.NumAuthors())
	}
}

func TestVectorsSimilarity(t *testing.T) {
	v := NewVectors([][]int32{
		{1, 2, 3, 4}, // a0
		{3, 4, 5, 6}, // a1: overlap 2 → 2/4 = 0.5
		{7, 8},       // a2: disjoint from a0
		{},           // a3: empty
	})
	if got := v.Similarity(0, 1); !almostEqual(got, 0.5) {
		t.Fatalf("Similarity(0,1) = %v, want 0.5", got)
	}
	if got := v.Similarity(0, 2); got != 0 {
		t.Fatalf("Similarity(0,2) = %v, want 0", got)
	}
	if got := v.Similarity(0, 3); got != 0 {
		t.Fatalf("Similarity(0,3) = %v, want 0", got)
	}
	if got := v.Similarity(0, 0); !almostEqual(got, 1) {
		t.Fatalf("self similarity = %v, want 1", got)
	}
}

func randomVectors(rng *rand.Rand, nAuthors, universe, maxFollow int) *Vectors {
	fs := make([][]int32, nAuthors)
	for i := range fs {
		k := rng.Intn(maxFollow + 1)
		for j := 0; j < k; j++ {
			fs[i] = append(fs[i], int32(rng.Intn(universe)))
		}
	}
	return NewVectors(fs)
}

func TestPairsAboveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		v := randomVectors(rng, 30, 40, 10)
		minSim := 0.1 + rng.Float64()*0.6
		got := v.PairsAbove(minSim)
		var want []SimPair
		for a := int32(0); a < int32(v.NumAuthors()); a++ {
			for b := a + 1; b < int32(v.NumAuthors()); b++ {
				if s := v.Similarity(a, b); s >= minSim {
					want = append(want, SimPair{A: a, B: b, Sim: s})
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d pairs, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].A != want[i].A || got[i].B != want[i].B || !almostEqual(got[i].Sim, want[i].Sim) {
				t.Fatalf("trial %d: pair %d mismatch: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestPairsAbovePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for minSim = 0")
		}
	}()
	NewVectors([][]int32{{1}}).PairsAbove(0)
}

func TestSimilarityCCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := randomVectors(rng, 50, 30, 15)
	ths := []float64{0.1, 0.2, 0.3, 0.5, 0.9}
	ccdf := v.SimilarityCCDF(ths)
	for i := 1; i < len(ccdf); i++ {
		if ccdf[i] > ccdf[i-1]+1e-12 {
			t.Fatalf("CCDF not non-increasing: %v", ccdf)
		}
	}
	if ccdf[0] < 0 || ccdf[0] > 1 {
		t.Fatalf("CCDF out of range: %v", ccdf)
	}
}

func buildTestGraph() *Graph {
	// 0-1, 1-2, 0-2 triangle; 3-4 edge; 5 isolated.
	return NewGraph(6, []SimPair{
		{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 2}, {A: 3, B: 4},
	}, 0.7)
}

func TestGraphBasics(t *testing.T) {
	g := buildTestGraph()
	if g.NumAuthors() != 6 || g.NumEdges() != 4 {
		t.Fatalf("n=%d edges=%d", g.NumAuthors(), g.NumEdges())
	}
	if g.LambdaA() != 0.7 {
		t.Fatalf("LambdaA = %v", g.LambdaA())
	}
	if !g.Adjacent(0, 1) || !g.Adjacent(1, 0) {
		t.Fatal("0-1 should be adjacent (both directions)")
	}
	if g.Adjacent(0, 3) {
		t.Fatal("0-3 should not be adjacent")
	}
	if g.Adjacent(5, 5) {
		t.Fatal("no self-loops")
	}
	if !g.Similar(5, 5) {
		t.Fatal("Similar must hold for same author even when isolated")
	}
	if !g.Similar(0, 2) || g.Similar(2, 3) {
		t.Fatal("Similar mismatch")
	}
	if got := g.Degree(1); got != 2 {
		t.Fatalf("Degree(1) = %d", got)
	}
	if got := g.AvgDegree(); !almostEqual(got, 8.0/6.0) {
		t.Fatalf("AvgDegree = %v", got)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
}

// TestNewGraphDedupsParallelEdges: a pair listed again, as is or reversed,
// merges into the edge it repeats, so the graph equals the one built from the
// list without repeats, edge count included. Every row is capped at its own
// length, so appending to one leaves its neighbor row intact.
func TestNewGraphDedupsParallelEdges(t *testing.T) {
	g := NewGraph(3, []SimPair{{A: 0, B: 1}, {A: 0, B: 1}, {A: 1, B: 0}}, 0.5)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}

	unique := []SimPair{{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 3}, {A: 2, B: 3}, {A: 3, B: 5}}
	want := NewGraph(6, unique, 0.5)
	for name, pairs := range map[string][]SimPair{
		"repeated": append(slices.Clone(unique), unique[1], unique[3], unique[1]),
		"reversed": append(slices.Clone(unique), SimPair{A: 3, B: 1}, SimPair{A: 5, B: 3}),
	} {
		g := NewGraph(6, pairs, 0.5)
		if g.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: NumEdges = %d, want %d", name, g.NumEdges(), want.NumEdges())
		}
		for a := int32(0); a < 6; a++ {
			if row := g.Neighbors(a); !slices.Equal(row, want.Neighbors(a)) || cap(row) != len(row) {
				t.Fatalf("%s: Neighbors(%d) = %v (cap %d), want %v capped at its length",
					name, a, row, cap(row), want.Neighbors(a))
			}
		}
	}
	for a := int32(0); a < 6; a++ {
		if row := want.Neighbors(a); cap(row) != len(row) {
			t.Fatalf("Neighbors(%d) has len %d and cap %d; want them equal", a, len(row), cap(row))
		}
	}
	_ = append(want.Neighbors(0), 4)
	if got := want.Neighbors(1); !slices.Equal(got, []int32{0, 3}) {
		t.Fatalf("after an append to row 0, Neighbors(1) = %v, want [0 3]", got)
	}
}

func TestNewGraphPanics(t *testing.T) {
	for name, pairs := range map[string][]SimPair{
		"self-loop":    {{A: 1, B: 1}},
		"out of range": {{A: 0, B: 9}},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewGraph(3, pairs, 0.5)
		})
	}
}

func TestBuildGraphFromVectors(t *testing.T) {
	v := NewVectors([][]int32{
		{1, 2, 3, 4},
		{1, 2, 3, 5}, // sim with a0 = 3/4 = 0.75 → dist 0.25
		{9, 10},      // disjoint
	})
	g := BuildGraph(v, 0.5) // edge iff sim >= 0.5
	if !g.Adjacent(0, 1) {
		t.Fatal("0-1 should be adjacent at λa=0.5")
	}
	if g.Adjacent(0, 2) || g.Adjacent(1, 2) {
		t.Fatal("author 2 should be isolated")
	}
	g2 := BuildGraph(v, 0.1) // edge iff sim >= 0.9
	if g2.NumEdges() != 0 {
		t.Fatal("no pairs have similarity >= 0.9")
	}
}

func TestBuildGraphPanicsOnBadLambda(t *testing.T) {
	v := NewVectors([][]int32{{1}})
	for _, bad := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for lambdaA=%v", bad)
				}
			}()
			BuildGraph(v, bad)
		}()
	}
}

func TestInducedComponents(t *testing.T) {
	g := buildTestGraph()
	tests := []struct {
		name    string
		authors []int32
		want    [][]int32
	}{
		{"full", []int32{0, 1, 2, 3, 4, 5}, [][]int32{{0, 1, 2}, {3, 4}, {5}}},
		{"split triangle", []int32{0, 2, 3}, [][]int32{{0, 2}, {3}}},
		{"bridge author missing", []int32{0, 1, 4}, [][]int32{{0, 1}, {4}}},
		{"duplicates ignored", []int32{5, 5, 5}, [][]int32{{5}}},
		{"empty", nil, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := g.InducedComponents(tc.authors)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestInducedComponentsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 40, 0.1)
		subset := randomSubset(rng, 40)
		comps := g.InducedComponents(subset)
		seen := map[int32]int{}
		for ci, comp := range comps {
			for _, a := range comp {
				if prev, dup := seen[a]; dup {
					t.Fatalf("author %d in components %d and %d", a, prev, ci)
				}
				seen[a] = ci
			}
		}
		uniq := map[int32]bool{}
		for _, a := range subset {
			uniq[a] = true
		}
		if len(seen) != len(uniq) {
			t.Fatalf("partition covers %d authors, want %d", len(seen), len(uniq))
		}
		// No edge crosses two components.
		for _, comp := range comps {
			for _, a := range comp {
				for _, b := range g.Neighbors(a) {
					if uniq[b] && seen[b] != seen[a] {
						t.Fatalf("edge %d-%d crosses components", a, b)
					}
				}
			}
		}
	}
}

// inducedComponentsModel is the map-based specification of
// InducedComponents: the pooled bitset implementation must return exactly
// its output.
func inducedComponentsModel(g *Graph, authors []int32) [][]int32 {
	in := make(map[int32]bool, len(authors))
	for _, a := range authors {
		in[a] = true
	}
	visited := make(map[int32]bool, len(in))
	var comps [][]int32
	uniq := make([]int32, 0, len(in))
	for a := range in {
		uniq = append(uniq, a)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	for _, start := range uniq {
		if visited[start] {
			continue
		}
		comp := []int32{}
		queue := []int32{start}
		visited[start] = true
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			comp = append(comp, a)
			for _, b := range g.Neighbors(a) {
				if in[b] && !visited[b] {
					visited[b] = true
					queue = append(queue, b)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// TestInducedComponentsMatchesModel compares the dense implementation with
// the map model on random graphs and subsets (with duplicates and on graphs
// of different sizes, so the pooled scratch is reused across shapes, and
// after calls that panicked on an author outside the graph), and checks that
// each component is capped: appending to one must not write into the next.
func TestInducedComponentsMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(80)
		g := randomGraph(rng, n, rng.Float64()*0.15)
		subset := randomSubset(rng, n)
		for k := rng.Intn(4); k > 0 && len(subset) > 0; k-- {
			subset = append(subset, subset[rng.Intn(len(subset))])
		}
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		if trial%5 == 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("trial %d: an author outside the graph did not panic", trial)
					}
				}()
				g.InducedComponents(append(slices.Clone(subset), int32(n+rng.Intn(70))))
			}()
		}
		got := g.InducedComponents(subset)
		want := inducedComponentsModel(g, subset)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		for i := 0; i+1 < len(got); i++ {
			next := append([]int32(nil), got[i+1]...)
			_ = append(got[i], -1)
			if !reflect.DeepEqual(got[i+1], next) {
				t.Fatalf("trial %d: appending to component %d overwrote component %d", trial, i, i+1)
			}
		}
		if all := g.Components(); !reflect.DeepEqual(all, inducedComponentsModel(g, allAuthors(n))) {
			t.Fatalf("trial %d: Components() = %v", trial, all)
		}
	}
}

func TestComponentsPartition(t *testing.T) {
	g := buildTestGraph()
	if got, want := g.Components(), [][]int32{{0, 1, 2}, {3, 4}, {5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Components = %v, want %v", got, want)
	}
	for a, want := range []int{0, 0, 0, 1, 1, 2} {
		if got := g.ComponentOf(int32(a)); got != want {
			t.Fatalf("ComponentOf(%d) = %d, want %d", a, got, want)
		}
	}
	// Refreshing an author yields a new graph with its own partition: the
	// edge 2–3 merges the first two components.
	g2, err := g.WithUpdatedAuthor(2, []int32{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g2.Components()); got != 2 {
		t.Fatalf("refreshed graph has %d components, want 2", got)
	}
	if got := len(g.Components()); got != 3 {
		t.Fatalf("refresh changed the old graph's partition to %d components", got)
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	var pairs []SimPair
	for a := int32(0); a < int32(n); a++ {
		for b := a + 1; b < int32(n); b++ {
			if rng.Float64() < p {
				pairs = append(pairs, SimPair{A: a, B: b})
			}
		}
	}
	return NewGraph(n, pairs, 0.7)
}

func randomSubset(rng *rand.Rand, n int) []int32 {
	var out []int32
	for a := 0; a < n; a++ {
		if rng.Float64() < 0.5 {
			out = append(out, int32(a))
		}
	}
	return out
}

func allAuthors(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestGreedyCliqueCoverSmall(t *testing.T) {
	g := buildTestGraph()
	cc := GreedyCliqueCover(g, allAuthors(6))
	if !cc.IsValid(g) {
		t.Fatal("cover contains a non-clique")
	}
	if !cc.CoversAllEdges(g, allAuthors(6)) {
		t.Fatal("cover misses an edge")
	}
	// Triangle should be one clique {0,1,2}, edge {3,4} another, {5} singleton.
	if cc.NumCliques() != 3 {
		t.Fatalf("NumCliques = %d, want 3 (got %v)", cc.NumCliques(), cc.Cliques)
	}
	for _, want := range [][]int32{{0, 1, 2}, {3, 4}, {5}} {
		if !slices.ContainsFunc(cc.Cliques, func(c []int32) bool { return slices.Equal(c, want) }) {
			t.Fatalf("missing clique %v in %v", want, cc.Cliques)
		}
	}
	if got := cc.CliquesOf(5); len(got) != 1 {
		t.Fatalf("isolated author must be in exactly one singleton clique, got %v", got)
	}
}

func TestGreedyCliqueCoverProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(40)
		g := randomGraph(rng, n, 0.05+rng.Float64()*0.3)
		authors := randomSubset(rng, n)
		cc := GreedyCliqueCover(g, authors)
		if !cc.IsValid(g) {
			t.Fatalf("trial %d: invalid clique in cover", trial)
		}
		if !cc.CoversAllEdges(g, authors) {
			t.Fatalf("trial %d: uncovered edge", trial)
		}
		// Every input author must belong to at least one clique.
		for _, a := range authors {
			if len(cc.CliquesOf(a)) == 0 {
				t.Fatalf("trial %d: author %d in no clique", trial, a)
			}
		}
	}
}

func TestGreedyCliqueCoverDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 30, 0.2)
	a := GreedyCliqueCover(g, allAuthors(30))
	b := GreedyCliqueCover(g, allAuthors(30))
	if !reflect.DeepEqual(a.Cliques, b.Cliques) {
		t.Fatal("clique cover not deterministic")
	}
}

func TestCliqueCoverStats(t *testing.T) {
	g := buildTestGraph()
	cc := GreedyCliqueCover(g, allAuthors(6))
	// Cliques: {0,1,2}, {3,4}, {5} → total size 6, avg size 2, avg per author 1.
	if got := cc.TotalSize(); got != 6 {
		t.Fatalf("TotalSize = %d", got)
	}
	if got := cc.AvgCliqueSize(); !almostEqual(got, 2) {
		t.Fatalf("AvgCliqueSize = %v", got)
	}
	if got := cc.AvgCliquesPerAuthor(); !almostEqual(got, 1) {
		t.Fatalf("AvgCliquesPerAuthor = %v", got)
	}
}

func TestBFSSample(t *testing.T) {
	// 0→1, 1→2, 3→0 (3 reaches 0 as follower), 4 isolated, 5→4.
	followees := [][]int32{{1}, {2}, {}, {0}, {}, {4}}
	got := BFSSample(followees, 0, 10)
	want := []int32{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BFSSample = %v, want %v", got, want)
	}
	if got := BFSSample(followees, 4, 10); !reflect.DeepEqual(got, []int32{4, 5}) {
		t.Fatalf("BFSSample from 4 = %v", got)
	}
	if got := BFSSample(followees, 0, 2); len(got) != 2 {
		t.Fatalf("size-limited sample = %v", got)
	}
	if got := BFSSample(followees, -1, 2); got != nil {
		t.Fatalf("invalid seed should return nil, got %v", got)
	}
	if got := BFSSample(followees, 0, 0); got != nil {
		t.Fatalf("zero size should return nil, got %v", got)
	}
}

func TestReindex(t *testing.T) {
	followees := [][]int32{
		{1, 7}, // author 0 follows 1 (sampled) and 7 (outside)
		{0},    // author 1
		{9},    // author 2 (not sampled)
	}
	nf, orig := Reindex(followees, []int32{0, 1})
	if !reflect.DeepEqual(orig, []int32{0, 1}) {
		t.Fatalf("origID = %v", orig)
	}
	// New ids: 0→0, 1→1, 7→2 (first unseen outside id).
	if !reflect.DeepEqual(nf[0], []int32{1, 2}) {
		t.Fatalf("nf[0] = %v", nf[0])
	}
	if !reflect.DeepEqual(nf[1], []int32{0}) {
		t.Fatalf("nf[1] = %v", nf[1])
	}
	// Similarities must be preserved under reindexing.
	v1 := NewVectors([][]int32{followees[0], followees[1]})
	v2 := NewVectors(nf)
	if !almostEqual(v1.Similarity(0, 1), v2.Similarity(0, 1)) {
		t.Fatal("reindexing changed similarity")
	}
}

func TestReindexPreservesSimilarityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fs := make([][]int32, 20)
	for i := range fs {
		k := 1 + rng.Intn(8)
		for j := 0; j < k; j++ {
			fs[i] = append(fs[i], int32(rng.Intn(40)))
		}
	}
	sample := []int32{2, 3, 5, 7, 11, 13}
	nf, _ := Reindex(fs, sample)
	vOld := NewVectors(fs)
	vNew := NewVectors(nf)
	for i := 0; i < len(sample); i++ {
		for j := i + 1; j < len(sample); j++ {
			oldSim := vOld.Similarity(sample[i], sample[j])
			newSim := vNew.Similarity(int32(i), int32(j))
			if !almostEqual(oldSim, newSim) {
				t.Fatalf("similarity (%d,%d) changed: %v vs %v", i, j, oldSim, newSim)
			}
		}
	}
}

func sortedCopy(xs []int32) []int32 {
	c := make([]int32, len(xs))
	copy(c, xs)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func TestBFSSampleSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fs := make([][]int32, 50)
	for i := range fs {
		k := rng.Intn(4)
		for j := 0; j < k; j++ {
			fs[i] = append(fs[i], int32(rng.Intn(50)))
		}
	}
	got := BFSSample(fs, 0, 30)
	if !reflect.DeepEqual(got, sortedCopy(got)) {
		t.Fatalf("sample not sorted: %v", got)
	}
}

func BenchmarkAdjacent(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 500, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Adjacent(int32(i%500), int32((i*7)%500))
	}
}
