package core

import (
	"time"

	"firehose/internal/metrics"
	"firehose/internal/simindex"
)

// NeighborBin solves SPSD with one post bin per author (Section 4.2). The
// bin of author a holds the accepted posts of a and of a's neighbors in the
// author similarity graph, so checking coverage of a new post touches only
// its own author's bin — every candidate there already passes the author
// dimension, and only the content check remains. The price is fan-out on
// insertion: an accepted post is copied into the bins of its author and all
// of the author's neighbors, giving the highest RAM of the three algorithms.
//
// Bins are covBins — structure-of-arrays rings, index-backed when the
// thresholds' index policy forces IndexOn (under IndexAuto the per-author
// bins stay on the exact batched-kernel scan: author pruning already keeps
// them small, which is the paper's argument for NeighborBin in the first
// place).
type NeighborBin struct {
	th        Thresholds
	g         AuthorGraph
	bins      map[int32]*covBin
	idxParams simindex.Params
	indexed   bool
	c         metrics.Counters
}

// NewNeighborBin returns a NeighborBin diversifier over the given author
// graph. Per-author bins are created lazily on first touch.
func NewNeighborBin(g AuthorGraph, th Thresholds) *NeighborBin {
	params, indexed := th.indexParams(false)
	return &NeighborBin{th: th, g: g, bins: make(map[int32]*covBin), idxParams: params, indexed: indexed}
}

// Name implements Diversifier.
func (nb *NeighborBin) Name() string { return "NeighborBin" }

// Counters implements Diversifier.
func (nb *NeighborBin) Counters() *metrics.Counters { return &nb.c }

func (nb *NeighborBin) bin(author int32) *covBin {
	b := nb.bins[author]
	if b == nil {
		fresh := newCovBin(nb.idxParams, nb.indexed)
		b = &fresh
		nb.bins[author] = b
	}
	return b
}

// prune evicts out-of-window copies from b, keeping the counters exact.
func (nb *NeighborBin) prune(b *covBin, cutoff int64) {
	if n := b.pruneBefore(cutoff); n > 0 {
		nb.c.Evictions += uint64(n)
		nb.c.RemoveStored(n)
	}
}

// Offer implements Diversifier.
func (nb *NeighborBin) Offer(p *Post) bool {
	defer nb.c.Decisions.ObserveSince(time.Now())
	cutoff := p.Time - nb.th.LambdaT
	own := nb.bin(p.Author)
	nb.prune(own, cutoff)

	pfp := uint64(p.FP)
	// Author similarity holds by bin construction; content decides.
	covered, comparisons := own.scan(pfp, nb.th.LambdaC, cutoff, anyHit)
	nb.c.Comparisons += comparisons
	if covered {
		nb.c.Rejected++
		return false
	}

	own.push(p.Time, pfp, p.Author)
	inserted := 1
	for _, n := range nb.g.Neighbors(p.Author) {
		b := nb.bin(n)
		// Neighbor bins are touched here anyway; pruning them now keeps the
		// live copy count tight without a separate sweep.
		nb.prune(b, cutoff)
		b.push(p.Time, pfp, p.Author)
		inserted++
	}
	nb.c.Insertions += uint64(inserted)
	nb.c.AddStored(inserted)
	nb.c.Accepted++
	return true
}
