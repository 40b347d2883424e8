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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
// The join runs on GOMAXPROCS goroutines. Each claims chunks of
// pairsChunk consecutive authors from a shared counter and emits every pair
// (a, b > a) of its authors, so chunks are independent and their outputs
// concatenate, in chunk order, into the globally ordered result.
func (v *Vectors) PairsAbove(minSim float64) []SimPair {
	if minSim <= 0 {
		panic(fmt.Sprintf("authorsim: PairsAbove requires minSim > 0, got %v", minSim))
	}
	ix := v.followerIndex()
	n := len(v.followees)
	chunks := make([][]SimPair, (n+pairsChunk-1)/pairsChunk)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(chunks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := pairsJoin{v: v, ix: ix, minSim: minSim, counts: make([]int32, n)}
			for c := int(next.Add(1)) - 1; c < len(chunks); c = int(next.Add(1)) - 1 {
				j.out = nil
				for a := c * pairsChunk; a < min(n, (c+1)*pairsChunk); a++ {
					j.author(int32(a))
				}
				chunks[c] = j.out
			}
		}()
	}
	wg.Wait()
	return slices.Concat(chunks...)
}

// pairsChunk is the number of consecutive authors a PairsAbove worker
// claims at a time. Low author ids have the most work (every follower
// b > a), so chunks are small enough for the tail to balance.
const pairsChunk = 32

// followerIndex is the inverted index PairsAbove joins over, in CSR form.
// Followee ids are replaced by dense keys, so its size is linear in the
// number of followee entries whatever the id range.
type followerIndex struct {
	keys      [][]int32 // author → the keys of its followees
	off       []int     // key k's followers are followers[off[k]:off[k+1]]
	followers []int32   // ascending author ids within each key
}

func (v *Vectors) followerIndex() *followerIndex {
	entries, lo, hi := 0, int64(math.MaxInt32), int64(math.MinInt32)
	for _, f := range v.followees {
		if len(f) > 0 {
			entries += len(f)
			lo, hi = min(lo, int64(f[0])), max(hi, int64(f[len(f)-1]))
		}
	}
	// A followee's key is its offset from the smallest id when the ids span
	// at most twice the entry count (a contiguous account universe, as the
	// generator and real crawls produce), and its first-seen rank otherwise.
	var rank map[int32]int32
	nkeys := 0
	if entries > 0 {
		if span := hi - lo + 1; span <= 2*int64(entries) {
			nkeys = int(span)
		} else {
			rank = make(map[int32]int32)
		}
	}
	ix := &followerIndex{keys: make([][]int32, len(v.followees))}
	flat := make([]int32, 0, entries)
	for a, f := range v.followees {
		start := len(flat)
		for _, t := range f {
			k := int32(int64(t) - lo)
			if rank != nil {
				var ok bool
				if k, ok = rank[t]; !ok {
					k = int32(len(rank))
					rank[t] = k
				}
			}
			flat = append(flat, k)
		}
		ix.keys[a] = flat[start:len(flat):len(flat)]
	}
	if rank != nil {
		nkeys = len(rank)
	}
	// Counting sort of (key, author) by key; authors are visited in
	// ascending order, so every follower list comes out sorted.
	ix.off = make([]int, nkeys+1)
	for _, k := range flat {
		ix.off[k+1]++
	}
	for k := 1; k < len(ix.off); k++ {
		ix.off[k] += ix.off[k-1]
	}
	fill := slices.Clone(ix.off[:nkeys])
	ix.followers = make([]int32, entries)
	for a, ks := range ix.keys {
		for _, k := range ks {
			ix.followers[fill[k]] = int32(a)
			fill[k]++
		}
	}
	return ix
}

// pairsJoin is one PairsAbove worker's state. counts is a dense per-author
// accumulator with an explicit touched list: at 20k+ authors the inner loop
// runs hundreds of millions of increments, so map overhead would dominate.
type pairsJoin struct {
	v       *Vectors
	ix      *followerIndex
	minSim  float64
	counts  []int32
	touched []int32
	out     []SimPair
}

// author appends a's pairs (a, b > a) with similarity >= minSim to out,
// ordered by b.
func (j *pairsJoin) author(a int32) {
	counts, touched := j.counts, j.touched[:0]
	for _, k := range j.ix.keys[a] {
		fs := j.ix.followers[j.ix.off[k]:j.ix.off[k+1]]
		i, _ := slices.BinarySearch(fs, a+1)
		for _, b := range fs[i:] {
			if counts[b] == 0 {
				touched = append(touched, b)
			}
			counts[b]++
		}
	}
	la := float64(len(j.v.followees[a]))
	start := len(j.out)
	for _, b := range touched {
		// One sqrt of the product, exactly as cosine.SetSimilarity and
		// MutableVectors.SimilaritiesOf compute it — the three paths
		// must agree bit-for-bit or threshold-boundary pairs flicker.
		sim := float64(counts[b]) / math.Sqrt(la*float64(len(j.v.followees[b])))
		counts[b] = 0
		if sim >= j.minSim {
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
