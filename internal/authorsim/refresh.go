package authorsim

import (
	"fmt"
	"math"
	"sort"
)

// This file supports the paper's maintenance story: author similarity "may
// be precomputed (e.g., once every week), as it changes slowly over time"
// (Section 3). A full weekly rebuild is BuildGraph; between rebuilds, the
// follow graph drifts one author at a time, and recomputing that single
// author's similarities is linear in the author's shared-followee overlap
// instead of quadratic in the population.

// MutableVectors wraps followee vectors with an incrementally maintained
// inverted index (followee → followers), so one author's similarities can
// be recomputed after a followee-set change without touching the rest.
type MutableVectors struct {
	v         *Vectors
	followers map[int32][]int32 // followee id → sorted author ids
}

// NewMutableVectors indexes the given vectors. The Vectors is captured, not
// copied; do not keep using it independently.
func NewMutableVectors(v *Vectors) *MutableVectors {
	return &MutableVectors{v: v, followers: v.invertedIndex()}
}

// Vectors returns the underlying vectors (read-only use).
func (mv *MutableVectors) Vectors() *Vectors { return mv.v }

// NumAuthors returns the author count.
func (mv *MutableVectors) NumAuthors() int { return mv.v.NumAuthors() }

// Similarity returns the cosine similarity of two authors' followee sets.
func (mv *MutableVectors) Similarity(a, b int32) float64 { return mv.v.Similarity(a, b) }

// SetFollowees replaces author a's followee set and updates the inverted
// index incrementally.
func (mv *MutableVectors) SetFollowees(a int32, followees []int32) error {
	if a < 0 || int(a) >= mv.v.NumAuthors() {
		return fmt.Errorf("authorsim: author %d out of range [0,%d)", a, mv.v.NumAuthors())
	}
	// Remove a from its old targets' follower lists.
	for _, t := range mv.v.followees[a] {
		mv.followers[t] = removeSorted(mv.followers[t], a)
		if len(mv.followers[t]) == 0 {
			delete(mv.followers, t)
		}
	}
	// Normalize the new set exactly as NewVectors does.
	c := sortedSet(followees)
	mv.v.followees[a] = c
	for _, t := range c {
		mv.followers[t] = insertSorted(mv.followers[t], a)
	}
	return nil
}

func removeSorted(xs []int32, v int32) []int32 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
	if i < len(xs) && xs[i] == v {
		return append(xs[:i], xs[i+1:]...)
	}
	return xs
}

func insertSorted(xs []int32, v int32) []int32 {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// SimilaritiesOf returns every author pair (a, b) with similarity >= minSim,
// computed through the inverted index: only authors sharing at least one
// followee with a are touched. minSim must be > 0.
func (mv *MutableVectors) SimilaritiesOf(a int32, minSim float64) ([]SimPair, error) {
	if minSim <= 0 {
		return nil, fmt.Errorf("authorsim: SimilaritiesOf requires minSim > 0, got %v", minSim)
	}
	if a < 0 || int(a) >= mv.v.NumAuthors() {
		return nil, fmt.Errorf("authorsim: author %d out of range", a)
	}
	fa := mv.v.followees[a]
	if len(fa) == 0 {
		return nil, nil
	}
	counts := make(map[int32]int)
	for _, t := range fa {
		for _, b := range mv.followers[t] {
			if b != a {
				counts[b]++
			}
		}
	}
	var out []SimPair
	la := float64(len(fa))
	for b, inter := range counts {
		lb := float64(len(mv.v.followees[b]))
		sim := float64(inter) / math.Sqrt(la*lb)
		if sim >= minSim {
			x, y := a, b
			if x > y {
				x, y = y, x
			}
			out = append(out, SimPair{A: x, B: y, Sim: sim})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out, nil
}

// WithUpdatedAuthor returns a new Graph equal to g except that author a's
// edges are replaced by the given neighbor set (its adjacency and the
// neighbors' adjacencies are rebuilt; all other rows are shared with g).
// The typical flow after a followee change:
//
//	mv.SetFollowees(a, newFollowees)
//	pairs, _ := mv.SimilaritiesOf(a, 1-lambdaA)
//	g2 := g.WithUpdatedAuthor(a, neighborsOf(a, pairs))
//
// Graphs are immutable, so readers of g are unaffected; swap g2 in at a
// safe point (see stream.ParallelMultiEngine.Swap).
func (g *Graph) WithUpdatedAuthor(a int32, neighbors []int32) (*Graph, error) {
	if a < 0 || int(a) >= len(g.adj) {
		return nil, fmt.Errorf("authorsim: author %d out of range", a)
	}
	ns := sortedSet(neighbors)
	for _, b := range ns {
		if b == a || b < 0 || int(b) >= len(g.adj) {
			return nil, fmt.Errorf("authorsim: bad neighbor %d for author %d", b, a)
		}
	}

	out := &Graph{adj: make([][]int32, len(g.adj)), lambdaA: g.lambdaA}
	copy(out.adj, g.adj) // share rows; rewrite only what changes
	old := g.adj[a]
	out.adj[a] = ns

	// Symmetrize: removed neighbors lose a, added neighbors gain a.
	oldSet := make(map[int32]bool, len(old))
	for _, b := range old {
		oldSet[b] = true
	}
	newSet := make(map[int32]bool, len(ns))
	for _, b := range ns {
		newSet[b] = true
	}
	for _, b := range old {
		if !newSet[b] {
			out.adj[b] = removeSorted(append([]int32(nil), g.adj[b]...), a)
		}
	}
	for _, b := range ns {
		if !oldSet[b] {
			out.adj[b] = insertSorted(append([]int32(nil), g.adj[b]...), a)
		}
	}

	out.edges = g.edges - len(old) + len(ns)
	return out, nil
}

// NeighborsFromPairs extracts author a's neighbor list from a SimPair slice
// (as returned by SimilaritiesOf).
func NeighborsFromPairs(a int32, pairs []SimPair) []int32 {
	var out []int32
	for _, p := range pairs {
		switch a {
		case p.A:
			out = append(out, p.B)
		case p.B:
			out = append(out, p.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
