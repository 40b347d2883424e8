package authorsim

import (
	"fmt"
	"runtime"
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
// rows can be collected as soon as the caller drops them. The rows are
// sorted on GOMAXPROCS goroutines, rowsChunk rows at a time.
func BuildGraphInPlace(followees [][]int32, lambdaA float64) *Graph {
	ParallelChunks(runtime.GOMAXPROCS(0), len(followees), rowsChunk, func(int) func(c, lo, hi int) {
		return func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				slices.Sort(followees[i])
				followees[i] = slices.Compact(followees[i])
			}
		}
	}, nil)
	return BuildGraph(&Vectors{followees: followees}, lambdaA)
}

// rowsChunk is the number of followee rows a BuildGraphInPlace goroutine
// sorts per claim: about half a millisecond of work at the benchmark's row
// lengths, so the shared counter is touched rarely and the tail balances.
const rowsChunk = 64

// NewGraph builds a Graph over n authors from an explicit edge list. Pairs
// are interpreted as undirected edges: a pair listed more than once, in
// either order, is merged into one edge, and a self-loop or an author outside
// [0, n) panics. The lambdaA value is recorded for reporting only.
//
// The rows share one backing array, sized by a counting pass over the pairs
// (exactly, for a list without repeats), and each is capped at its own
// length, so appending to one reallocates instead of overwriting the next.
func NewGraph(n int, pairs []SimPair, lambdaA float64) *Graph {
	off := make([]int, n+1) // row a fills flat[off[a]:off[a+1]]
	for _, p := range pairs {
		if p.A == p.B {
			panic(fmt.Sprintf("authorsim: self-loop on author %d", p.A))
		}
		if p.A < 0 || int(p.A) >= n || p.B < 0 || int(p.B) >= n {
			panic(fmt.Sprintf("authorsim: edge (%d,%d) out of range [0,%d)", p.A, p.B, n))
		}
		off[p.A+1]++
		off[p.B+1]++
	}
	for a := 1; a <= n; a++ {
		off[a] += off[a-1]
	}
	flat := make([]int32, off[n])
	fill := slices.Clone(off[:n])
	for _, p := range pairs {
		flat[fill[p.A]] = p.B
		fill[p.A]++
		flat[fill[p.B]] = p.A
		fill[p.B]++
	}
	// Sort and deduplicate each row, moving it down over the slots its
	// predecessors' repeats freed.
	g := &Graph{adj: make([][]int32, n), lambdaA: lambdaA}
	w := 0
	for a := range g.adj {
		row := flat[off[a]:off[a+1]]
		slices.Sort(row)
		k := copy(flat[w:], slices.Compact(row))
		g.adj[a] = flat[w : w+k : w+k]
		w += k
	}
	g.edges = w / 2
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

// componentScratch is InducedComponents' working memory: a bitset over
// author ids, small enough to stay in cache at paper scale (2.5 KB for
// 20,150 authors), so a call allocates no per-call maps, and the reused
// buffers for the sorted input set and the components' end offsets.
type componentScratch struct {
	// pending has a bit set for each input author not yet placed in a
	// component. Every input author is placed by the end of a call, so it
	// is all zero between calls and needs no clearing.
	pending    []uint64
	uniq, ends []int32
}

var componentScratchPool = sync.Pool{New: func() any { return new(componentScratch) }}

// InducedComponents returns the connected components of the subgraph of g
// induced by the given author set (a user's Gi in the paper). Every input
// author appears in exactly one component, including authors isolated in the
// induced subgraph. Each component is sorted ascending, and components are
// ordered by their smallest member, so the result is canonical: two users
// subscribing to the same author set get identical output. Duplicate input
// authors are ignored; every author must be a node of g.
//
// All components share one backing array, each capped at its own length, so
// appending to one reallocates instead of overwriting the next. That array
// and the result slice are the call's only allocations. It is safe for
// concurrent use.
func (g *Graph) InducedComponents(authors []int32) [][]int32 {
	if len(authors) == 0 {
		return nil
	}
	s := componentScratchPool.Get().(*componentScratch)
	if words := (len(g.adj) + 63) / 64; len(s.pending) < words {
		s.pending = make([]uint64, words)
	}
	pending := s.pending

	// Iterate over sorted unique authors so output order is canonical.
	uniq := s.uniq[:0]
	for _, a := range authors {
		if w, m := a>>6, uint64(1)<<(a&63); pending[w]&m == 0 {
			pending[w] |= m
			uniq = append(uniq, a)
		}
	}
	slices.Sort(uniq)

	// Breadth-first search with the output itself as the queue: a component
	// is the run of out appended since its start author, and ends records
	// where each run stops. out never grows past its capacity, so the
	// components stay valid views of it. An author leaves pending as it is
	// placed, so the search leaves pending all zero.
	out := make([]int32, 0, len(uniq))
	ends := s.ends[:0]
	for _, start := range uniq {
		w, m := start>>6, uint64(1)<<(start&63)
		if pending[w]&m == 0 {
			continue
		}
		pending[w] &^= m
		first := len(out)
		out = append(out, start)
		for i := first; i < len(out); i++ {
			for _, b := range g.adj[out[i]] {
				if w, m := b>>6, uint64(1)<<(b&63); pending[w]&m != 0 {
					pending[w] &^= m
					out = append(out, b)
				}
			}
		}
		slices.Sort(out[first:])
		ends = append(ends, int32(len(out)))
	}
	comps := make([][]int32, len(ends))
	first := int32(0)
	for i, end := range ends {
		comps[i] = out[first:end:end]
		first = end
	}
	// Returned only on success: a call that panicked on an author outside
	// g would leave bits set.
	s.uniq, s.ends = uniq, ends
	componentScratchPool.Put(s)
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
