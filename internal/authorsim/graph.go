package authorsim

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is the author similarity graph G: nodes are authors, and an edge
// connects two authors whose author distance (1 − cosine similarity of
// followee sets) is at most λa. The graph is immutable after construction;
// following the paper it is precomputed offline and consulted read-only by
// the streaming algorithms, so it is safe for concurrent use.
type Graph struct {
	adj     [][]int32 // sorted neighbor lists
	lambdaA float64
	edges   int

	// partOnce computes part, the component partition, on first use.
	partOnce sync.Once
	part     *partition
}

// BuildGraph computes G(λa) from followee vectors: an edge joins a and b iff
// 1 − Similarity(a,b) <= lambdaA. lambdaA must be in [0, 1).
// lambdaA == 1 would make every pair adjacent (distance is always <= 1) and
// is rejected; use a value strictly below 1.
func BuildGraph(v *Vectors, lambdaA float64) *Graph {
	if lambdaA < 0 || lambdaA >= 1 {
		panic(fmt.Sprintf("authorsim: lambdaA must be in [0,1), got %v", lambdaA))
	}
	minSim := 1 - lambdaA
	return NewGraph(v.NumAuthors(), v.PairsAbove(minSim), lambdaA)
}

// BuildGraphInPlace is BuildGraph(NewVectors(followees), lambdaA) without
// the copy, for a caller that decoded the rows only to build the graph: it
// takes ownership of followees, sorting and deduplicating every row in
// place (followees[i] is replaced by its deduplicated prefix, and the
// elements past it are zeroed), then runs the same join. The caller must
// not read followees afterwards; the graph keeps no reference to it, so the
// rows can be collected as soon as the caller drops them.
func BuildGraphInPlace(followees [][]int32, lambdaA float64) *Graph {
	for i, f := range followees {
		slices.Sort(f)
		followees[i] = slices.Compact(f)
	}
	return BuildGraph(&Vectors{followees: followees}, lambdaA)
}

// NewGraph builds a Graph over n authors from an explicit edge list. Pairs
// are interpreted as undirected edges; duplicates and self-loops are
// rejected. The lambdaA value is recorded for reporting only.
func NewGraph(n int, pairs []SimPair, lambdaA float64) *Graph {
	g := &Graph{adj: make([][]int32, n), lambdaA: lambdaA}
	for _, p := range pairs {
		if p.A == p.B {
			panic(fmt.Sprintf("authorsim: self-loop on author %d", p.A))
		}
		if p.A < 0 || int(p.A) >= n || p.B < 0 || int(p.B) >= n {
			panic(fmt.Sprintf("authorsim: edge (%d,%d) out of range [0,%d)", p.A, p.B, n))
		}
		g.adj[p.A] = append(g.adj[p.A], p.B)
		g.adj[p.B] = append(g.adj[p.B], p.A)
	}
	for i := range g.adj {
		slices.Sort(g.adj[i])
		g.adj[i] = slices.Compact(g.adj[i])
		g.edges += len(g.adj[i])
	}
	g.edges /= 2
	return g
}

// NumAuthors returns the number of nodes.
func (g *Graph) NumAuthors() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// LambdaA returns the author-distance threshold the graph was built with.
func (g *Graph) LambdaA() float64 { return g.lambdaA }

// Degree returns the number of neighbors of author a.
func (g *Graph) Degree(a int32) int { return len(g.adj[a]) }

// Neighbors returns the sorted neighbor list of author a. The returned
// slice must not be modified.
func (g *Graph) Neighbors(a int32) []int32 { return g.adj[a] }

// Contains reports whether a is a node id of the graph. Similar and
// Adjacent index adjacency by id and may only be called with contained ids;
// code handling unvalidated ids (checkpoint restore, ingest boundaries)
// checks here first.
func (g *Graph) Contains(a int32) bool { return a >= 0 && int(a) < len(g.adj) }

// Adjacent reports whether authors a and b are connected by an edge
// (author distance <= λa, a != b).
func (g *Graph) Adjacent(a, b int32) bool {
	adj := g.adj[a]
	if len(g.adj[b]) < len(adj) {
		adj, b = g.adj[b], a
	}
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= b })
	return i < len(adj) && adj[i] == b
}

// Similar implements the paper's author-dimension coverage test: authors are
// similar if they are the same author (distance 0) or neighbors in G.
func (g *Graph) Similar(a, b int32) bool {
	return a == b || g.Adjacent(a, b)
}

// AvgDegree returns the average number of neighbors per author (the paper's
// parameter d).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.adj))
}

// componentScratch is InducedComponents' working memory: two dense
// epoch-stamped marks indexed by author id (in[a] == epoch: a is in the
// input set; seen[a] == epoch: a was reached by the search), so a call
// clears nothing and allocates no per-call maps.
type componentScratch struct {
	in, seen []uint32
	epoch    uint32
}

var componentScratchPool = sync.Pool{New: func() any { return new(componentScratch) }}

// begin sizes the marks for n authors and opens a fresh epoch.
func (s *componentScratch) begin(n int) {
	if len(s.in) < n {
		s.in, s.seen = make([]uint32, n), make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(s.in)
		clear(s.seen)
		s.epoch = 1
	}
}

// InducedComponents returns the connected components of the subgraph of g
// induced by the given author set (a user's Gi in the paper). Every input
// author appears in exactly one component, including authors isolated in the
// induced subgraph. Each component is sorted ascending, and components are
// ordered by their smallest member, so the result is canonical: two users
// subscribing to the same author set get identical output. Duplicate input
// authors are ignored; every author must be a node of g.
//
// All components share one backing array, each capped at its own length, so
// appending to one reallocates instead of overwriting the next.
func (g *Graph) InducedComponents(authors []int32) [][]int32 {
	if len(authors) == 0 {
		return nil
	}
	s := componentScratchPool.Get().(*componentScratch)
	defer componentScratchPool.Put(s)
	s.begin(len(g.adj))
	ep := s.epoch

	// Iterate over sorted unique authors so output order is canonical.
	uniq := make([]int32, 0, len(authors))
	for _, a := range authors {
		if s.in[a] != ep {
			s.in[a] = ep
			uniq = append(uniq, a)
		}
	}
	slices.Sort(uniq)

	// Breadth-first search with the output itself as the queue: a component
	// is the run of out appended since its start author. out never grows
	// past its capacity, so earlier components stay valid views.
	out := make([]int32, 0, len(uniq))
	var comps [][]int32
	for _, start := range uniq {
		if s.seen[start] == ep {
			continue
		}
		s.seen[start] = ep
		first := len(out)
		out = append(out, start)
		for i := first; i < len(out); i++ {
			for _, b := range g.adj[out[i]] {
				if s.in[b] == ep && s.seen[b] != ep {
					s.seen[b] = ep
					out = append(out, b)
				}
			}
		}
		comp := out[first:len(out):len(out)]
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// partition is the connected-component partition of a whole graph.
type partition struct {
	comps  [][]int32
	compOf []int32 // author → index into comps
}

// Components returns the connected components of g in InducedComponents'
// canonical order (sorted members, ordered by smallest member). The
// partition is computed once per graph, on first use, and shared by every
// caller; it is safe for concurrent use and must not be mutated.
func (g *Graph) Components() [][]int32 { return g.partition().comps }

// ComponentOf returns the index into Components of a's component.
func (g *Graph) ComponentOf(a int32) int { return int(g.partition().compOf[a]) }

func (g *Graph) partition() *partition {
	g.partOnce.Do(func() {
		all := make([]int32, len(g.adj))
		for i := range all {
			all[i] = int32(i)
		}
		p := &partition{comps: g.InducedComponents(all), compOf: make([]int32, len(g.adj))}
		for ci, comp := range p.comps {
			for _, a := range comp {
				p.compOf[a] = int32(ci)
			}
		}
		g.part = p
	})
	return g.part
}

// ComponentKey returns a canonical string key for a component (its sorted
// author ids), used to deduplicate identical components across users in the
// shared multi-user algorithms (Section 5).
func ComponentKey(comp []int32) string {
	// Components from InducedComponents are already sorted; be defensive
	// about callers passing unsorted sets.
	if !sort.SliceIsSorted(comp, func(i, j int) bool { return comp[i] < comp[j] }) {
		c := make([]int32, len(comp))
		copy(c, comp)
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		comp = c
	}
	buf := make([]byte, 0, len(comp)*5)
	for _, a := range comp {
		buf = appendVarint(buf, a)
	}
	return string(buf)
}

func appendVarint(buf []byte, v int32) []byte {
	u := uint32(v)
	for u >= 0x80 {
		buf = append(buf, byte(u)|0x80)
		u >>= 7
	}
	return append(buf, byte(u))
}
