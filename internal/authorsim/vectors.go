// Package authorsim implements the author-dimension substrate of the paper:
// followee vectors, the cosine author-similarity measure, the author
// similarity graph G(λa), the greedy clique edge cover used by CliqueBin,
// connected components of per-user subgraphs used by the shared multi-user
// algorithms, and BFS sampling of a follower graph as in the paper's dataset
// preparation (Section 6.1).
//
// Author similarity between two authors is the cosine similarity of their
// followee sets viewed as binary vectors: |A∩B| / sqrt(|A|·|B|). Author
// distance is 1 − similarity. Following the paper, similarities are
// precomputed offline; the streaming algorithms only consult the immutable
// graph.
package authorsim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"firehose/internal/cosine"
)

// Vectors holds the followee set of every author, indexed by author id
// (0..NumAuthors-1). Followee ids may range over a larger account universe
// than the authors themselves, exactly as in Twitter where a sampled author
// follows accounts outside the sample.
type Vectors struct {
	followees [][]int32 // sorted ascending, deduplicated
}

// NewVectors builds a Vectors from per-author followee lists. The input
// slices are copied, sorted and deduplicated; the caller keeps ownership of
// its slices.
func NewVectors(followees [][]int32) *Vectors {
	v := &Vectors{followees: make([][]int32, len(followees))}
	for i, f := range followees {
		v.followees[i] = sortedSet(f)
	}
	return v
}

// sortedSet returns a sorted, deduplicated copy of ids.
func sortedSet(ids []int32) []int32 {
	c := make([]int32, len(ids))
	copy(c, ids)
	slices.Sort(c)
	return slices.Compact(c)
}

// NumAuthors returns the number of authors.
func (v *Vectors) NumAuthors() int { return len(v.followees) }

// Followees returns the sorted followee set of author a. The returned slice
// must not be modified.
func (v *Vectors) Followees(a int32) []int32 { return v.followees[a] }

// Similarity returns the cosine similarity of the followee sets of a and b.
func (v *Vectors) Similarity(a, b int32) float64 {
	return cosine.SetSimilarity(v.followees[a], v.followees[b])
}

// SimPair records a pair of authors with similarity at or above a query
// threshold. A < B always holds.
type SimPair struct {
	A, B int32
	Sim  float64
}

// PairsAbove returns every author pair with similarity >= minSim, ordered
// by (A, B), computed with an inverted index over followee ids so that only
// pairs sharing at least one followee are ever touched (the all-pairs
// computation the paper calls prohibitive at full scale is avoided; pairs
// with zero overlap have similarity zero). minSim must be > 0.
//
// The join runs on GOMAXPROCS goroutines (ParallelChunks). Each claims
// chunks of pairsChunk consecutive authors and emits every pair (a, b > a)
// of its authors, so chunks are independent and their outputs concatenate,
// in chunk order, into the globally ordered result.
//
// The few most-followed accounts (heavyKeys of them) would touch most pairs
// while qualifying almost none, so they are not scanned: each author carries
// a bitmask of the heavy accounts it follows, a pair touched through a light
// account adds the popcount of the masks' intersection, and a pair sharing
// only heavy accounts is skipped when its count cannot reach minSim (see
// pairsJoin.author).
func (v *Vectors) PairsAbove(minSim float64) []SimPair {
	if minSim <= 0 {
		panic(fmt.Sprintf("authorsim: PairsAbove requires minSim > 0, got %v", minSim))
	}
	ix := v.followerIndex()
	n := len(v.followees)
	chunks := make([][]SimPair, (n+pairsChunk-1)/pairsChunk)
	ParallelChunks(runtime.GOMAXPROCS(0), n, pairsChunk, func(int) func(c, lo, hi int) {
		j := pairsJoin{ix: ix, minSim: minSim, counts: make([]int32, n)}
		return func(c, lo, hi int) {
			j.out = nil
			for a := lo; a < hi; a++ {
				j.author(int32(a))
			}
			chunks[c] = j.out
		}
	}, nil)
	// One exact allocation (slices.Concat allocates twice under -race), and
	// nil when no pair qualifies.
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	var out []SimPair
	if total > 0 {
		out = make([]SimPair, 0, total)
	}
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// pairsChunk is the number of consecutive authors a PairsAbove worker
// claims at a time. Low author ids have the most work (every follower
// b > a), so chunks are small enough for the tail to balance.
const pairsChunk = 32

// heavyKeys is the number of followees with the longest follower lists that
// PairsAbove counts by bitmask instead of scanning: one bit each of a uint64.
const heavyKeys = 64

// followerIndex is the inverted index PairsAbove joins over, in CSR form.
// Followee ids are replaced by dense keys, so its size is linear in the
// number of followee entries whatever the id range. On a contiguous id
// range it reads the Vectors' own rows as keys, so followers is its only
// array of that size.
type followerIndex struct {
	rows      [][]int32 // author → its followees' keys, each offset by base
	base      int32     // a followee t has key t − base
	off       []int32   // key k's followers are followers[off[k]:off[k+1]]
	followers []int32   // ascending author ids within each key
	bit       []int8    // key → its bit in masks, or -1 for a light (scanned) key
	masks     []uint64  // author → one bit per heavy key it follows
	lens      []int32   // author → number of followees
	smin      int32     // the smallest non-zero entry of lens
}

func (v *Vectors) followerIndex() *followerIndex {
	entries, lo, hi := 0, int64(math.MaxInt32), int64(math.MinInt32)
	for _, f := range v.followees {
		if len(f) > 0 {
			entries += len(f)
			lo, hi = min(lo, int64(f[0])), max(hi, int64(f[len(f)-1]))
		}
	}
	n := len(v.followees)
	ix := &followerIndex{
		rows:  v.followees,
		masks: make([]uint64, n),
		lens:  make([]int32, n),
	}
	for a, f := range v.followees {
		ix.lens[a] = int32(len(f))
		if len(f) > 0 && (ix.smin == 0 || int32(len(f)) < ix.smin) {
			ix.smin = int32(len(f))
		}
	}
	// A followee's key is its offset from the smallest id when the ids span
	// at most twice the entry count (a contiguous account universe, as the
	// generator and real crawls produce): the rows are then the keys, read
	// with base = lo, and the subtraction wraps to the true offset, which
	// fits in an int32. Otherwise a key is the followee's first-seen rank,
	// and the rows are renumbered into one copy.
	nkeys := 0
	if span := hi - lo + 1; entries > 0 && span <= 2*int64(entries) {
		nkeys, ix.base = int(span), int32(lo)
	} else if entries > 0 {
		rank := make(map[int32]int32)
		flat := make([]int32, 0, entries)
		ix.rows = make([][]int32, n)
		for a, f := range v.followees {
			start := len(flat)
			for _, t := range f {
				k, ok := rank[t]
				if !ok {
					k = int32(len(rank))
					rank[t] = k
				}
				flat = append(flat, k)
			}
			ix.rows[a] = flat[start:len(flat):len(flat)]
		}
		nkeys = len(rank)
	}
	// Counting sort of (key, author) by key; authors are visited in
	// ascending order, so every follower list comes out sorted.
	ix.off = make([]int32, nkeys+1)
	for _, row := range ix.rows {
		for _, t := range row {
			ix.off[t-ix.base+1]++
		}
	}
	for k := 1; k < len(ix.off); k++ {
		ix.off[k] += ix.off[k-1]
	}
	ix.bit = make([]int8, nkeys)
	for k := range ix.bit {
		ix.bit[k] = -1
	}
	for i, k := range ix.heaviest() {
		ix.bit[k] = int8(i)
	}
	fill := slices.Clone(ix.off[:nkeys])
	ix.followers = make([]int32, entries)
	for a, row := range ix.rows {
		for _, t := range row {
			k := t - ix.base
			ix.followers[fill[k]] = int32(a)
			fill[k]++
			if ix.bit[k] >= 0 {
				ix.masks[a] |= 1 << ix.bit[k]
			}
		}
	}
	return ix
}

// heaviest returns the keys with the longest follower lists, at most
// heavyKeys of them, ties broken by the smaller key. A key with one
// follower pairs no one and is never heavy.
func (ix *followerIndex) heaviest() []int32 {
	size := func(k int32) int32 { return ix.off[k+1] - ix.off[k] }
	// top is kept sorted heaviest first; a key enters only if it beats the
	// lightest one held, so the pass is linear for all but the first keys.
	top := make([]int32, 0, heavyKeys+1)
	for k := int32(0); k < int32(len(ix.off)-1); k++ {
		if size(k) < 2 || len(top) == heavyKeys && size(k) <= size(top[heavyKeys-1]) {
			continue
		}
		i := len(top)
		for i > 0 && size(top[i-1]) < size(k) {
			i--
		}
		top = slices.Insert(top, i, k)
		top = top[:min(len(top), heavyKeys)]
	}
	return top
}

// pairsJoin is one PairsAbove worker's state. counts is a dense per-author
// accumulator with an explicit touched list: at 20k+ authors the inner loop
// runs hundreds of millions of increments, so map overhead would dominate.
type pairsJoin struct {
	ix      *followerIndex
	minSim  float64
	counts  []int32
	touched []int32
	out     []SimPair
}

// author appends a's pairs (a, b > a) with similarity >= minSim to out,
// ordered by b.
//
// Every similarity is float64(c)/math.Sqrt(la*float64(lb)), exactly as
// cosine.SetSimilarity and MutableVectors.SimilaritiesOf compute it — the
// paths must agree bit-for-bit or threshold-boundary pairs flicker. Float
// multiplication, sqrt and division are correctly rounded and so monotone:
// the expression can only fall as lb grows and only rise as c grows. With
// lb >= smin for every b that shares a followee, a count below need, the
// smallest c whose expression at smin reaches minSim, fails for every b
// without being divided. A pair sharing only heavy keys counts at most
// popcount(mask[a]) of them; below need, a skips such pairs, otherwise it
// scans the heavy keys' follower lists too and counts exactly.
func (j *pairsJoin) author(a int32) {
	ix := j.ix
	la := float64(ix.lens[a])
	d := math.Sqrt(la * float64(ix.smin))
	need := int32(sort.Search(int(ix.lens[a])+1, func(c int) bool { return float64(c)/d >= j.minSim }))
	scanHeavy := int32(bits.OnesCount64(ix.masks[a])) >= need
	counts, touched := j.counts, j.touched[:0]
	for _, t := range ix.rows[a] {
		k := t - ix.base
		if ix.bit[k] >= 0 && !scanHeavy {
			continue
		}
		// a is in k's ascending follower list; only the followers after it
		// pair with a as (a, b > a).
		fl := ix.followers[ix.off[k]:ix.off[k+1]]
		i, _ := slices.BinarySearch(fl, a)
		for _, b := range fl[i+1:] {
			if counts[b] == 0 {
				touched = append(touched, b)
			}
			counts[b]++
		}
	}
	start := len(j.out)
	for _, b := range touched {
		c := counts[b]
		counts[b] = 0
		if !scanHeavy {
			c += int32(bits.OnesCount64(ix.masks[a] & ix.masks[b]))
		}
		if c < need {
			continue
		}
		if sim := float64(c) / math.Sqrt(la*float64(ix.lens[b])); sim >= j.minSim {
			j.out = append(j.out, SimPair{A: a, B: b, Sim: sim})
		}
	}
	j.touched = touched
	slices.SortFunc(j.out[start:], func(x, y SimPair) int { return cmp.Compare(x.B, y.B) })
}

// invertedIndex maps each followee id to the sorted list of authors that
// follow it; MutableVectors maintains it incrementally.
func (v *Vectors) invertedIndex() map[int32][]int32 {
	idx := make(map[int32][]int32)
	for a, f := range v.followees {
		for _, t := range f {
			idx[t] = append(idx[t], int32(a))
		}
	}
	return idx
}

// SimilarityCCDF returns, for each threshold in thresholds, the fraction of
// all author pairs whose similarity is >= that threshold. This reproduces
// the measurement behind Figure 9. Thresholds must be positive (pairs with
// similarity zero are the overwhelming majority and are never materialized).
func (v *Vectors) SimilarityCCDF(thresholds []float64) []float64 {
	minT := math.Inf(1)
	for _, t := range thresholds {
		if t < minT {
			minT = t
		}
	}
	pairs := v.PairsAbove(minT)
	n := float64(v.NumAuthors())
	total := n * (n - 1) / 2
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		cnt := 0
		for _, p := range pairs {
			if p.Sim >= t {
				cnt++
			}
		}
		out[i] = float64(cnt) / total
	}
	return out
}
