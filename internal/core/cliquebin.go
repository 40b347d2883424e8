package core

import (
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/metrics"
	"firehose/internal/simindex"
)

// CliqueBin solves SPSD with one post bin per clique of a clique edge cover
// of the author similarity graph (Section 4.3). A post is stored once per
// clique containing its author — fewer copies than NeighborBin's one per
// neighbor — and coverage of a new post is checked against the bins of the
// cliques containing its author. Because every edge of the graph lies inside
// some clique (and isolated authors get singleton cliques), the candidate
// set still contains every author-similar accepted post; because clique
// members are pairwise similar, only the content check runs per candidate.
// A post may be compared twice when two candidates share several cliques,
// which is the comparison overhead the paper trades against RAM.
//
// Bins are covBins — structure-of-arrays rings, index-backed only under
// IndexOn (like NeighborBin's, the per-clique bins are already
// author-pruned and small under IndexAuto); see UniBin for the layout
// rationale.
type CliqueBin struct {
	th        Thresholds
	cover     *authorsim.CliqueCover
	bins      []*covBin // indexed by clique id
	idxParams simindex.Params
	indexed   bool
	c         metrics.Counters
}

// NewCliqueBin returns a CliqueBin diversifier over a precomputed clique
// edge cover (the paper computes the cover offline together with the author
// similarity graph).
func NewCliqueBin(cover *authorsim.CliqueCover, th Thresholds) *CliqueBin {
	params, indexed := th.indexParams(false)
	return &CliqueBin{
		th:        th,
		cover:     cover,
		bins:      make([]*covBin, cover.NumCliques()),
		idxParams: params,
		indexed:   indexed,
	}
}

// Name implements Diversifier.
func (cb *CliqueBin) Name() string { return "CliqueBin" }

// Counters implements Diversifier.
func (cb *CliqueBin) Counters() *metrics.Counters { return &cb.c }

func (cb *CliqueBin) bin(clique int) *covBin {
	b := cb.bins[clique]
	if b == nil {
		fresh := newCovBin(cb.idxParams, cb.indexed)
		b = &fresh
		cb.bins[clique] = b
	}
	return b
}

// Offer implements Diversifier. Posts from authors absent from the cover
// (never seen when the cover spans all subscribed authors) are accepted
// without storage: they have no similar authors, so nothing can cover them
// and they can cover nothing within the author dimension... except their own
// later posts — which is why the cover must include singleton cliques for
// isolated authors; authorsim.GreedyCliqueCover guarantees that.
func (cb *CliqueBin) Offer(p *Post) bool {
	defer cb.c.Decisions.ObserveSince(time.Now())
	cutoff := p.Time - cb.th.LambdaT
	cliques := cb.cover.CliquesOf(p.Author)

	covered := false
	pfp := uint64(p.FP)
	for _, ci := range cliques {
		b := cb.bin(ci)
		if n := b.pruneBefore(cutoff); n > 0 {
			cb.c.Evictions += uint64(n)
			cb.c.RemoveStored(n)
		}
		// Clique co-membership implies author similarity; content decides.
		cov, comparisons := b.scan(pfp, cb.th.LambdaC, cutoff, anyHit)
		cb.c.Comparisons += comparisons
		if cov {
			covered = true
			break
		}
	}
	if covered {
		cb.c.Rejected++
		return false
	}

	for _, ci := range cliques {
		cb.bin(ci).push(p.Time, pfp, p.Author)
	}
	cb.c.Insertions += uint64(len(cliques))
	cb.c.AddStored(len(cliques))
	cb.c.Accepted++
	return true
}
