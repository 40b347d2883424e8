package core

import (
	"time"

	"firehose/internal/metrics"
)

// UniBin solves SPSD with a single time-windowed post bin holding all
// accepted posts (Section 4.1). Each arrival is compared, newest first,
// against every post of the last λt time units; a post covers the arrival
// when both the content and the author dimension pass (the time dimension
// holds by construction of the window). UniBin stores exactly one copy per
// accepted post — the lowest RAM of the three algorithms — at the price of
// comparing against posts from dissimilar authors.
//
// The bin is a covBin: a structure-of-arrays ring (postbin.SoA) whose
// content lookup either probes an incrementally-synced SimHash index (when
// the thresholds' index policy resolves feasible at λc — under IndexAuto
// that is λc ≤ AutoIndexMaxLambdaC) or runs the exact batched-kernel scan.
// Offer is
// allocation-free in steady state on the exact path and amortized
// allocation-free on the indexed path (the index recycles bucket storage;
// only the Go runtime's occasional map housekeeping allocates).
type UniBin struct {
	th  Thresholds
	g   AuthorGraph
	bin covBin
	c   metrics.Counters
}

// NewUniBin returns a UniBin diversifier. The author graph must encode the
// λa threshold (edge iff author distance <= λa).
func NewUniBin(g AuthorGraph, th Thresholds) *UniBin {
	params, indexed := th.indexParams(true)
	return &UniBin{th: th, g: g, bin: newCovBin(params, indexed)}
}

// IndexActive reports whether the content lookup is index-backed under the
// construction-time policy resolution.
func (u *UniBin) IndexActive() bool { return u.bin.idx != nil }

// Name implements Diversifier.
func (u *UniBin) Name() string { return "UniBin" }

// Counters implements Diversifier.
func (u *UniBin) Counters() *metrics.Counters { return &u.c }

// SetGraph swaps the author graph consulted from the next Offer on. Unlike
// NeighborBin and CliqueBin, whose bin layout bakes in the old graph, a
// UniBin's single time-ordered bin is graph-independent, so refreshed author
// similarities (the paper's periodic recomputation) apply immediately with
// no state loss. Not safe to call concurrently with Offer; serialize via
// the stream engine's Swap.
func (u *UniBin) SetGraph(g AuthorGraph) { u.g = g }

// Offer implements Diversifier.
func (u *UniBin) Offer(p *Post) bool {
	defer u.c.Decisions.ObserveSince(time.Now())
	cutoff := p.Time - u.th.LambdaT
	if n := u.bin.pruneBefore(cutoff); n > 0 {
		u.c.Evictions += uint64(n)
		u.c.RemoveStored(n)
	}
	covered, comparisons := u.bin.scan(uint64(p.FP), u.th.LambdaC, cutoff, func(_ int, b int32) bool {
		return u.g.Similar(p.Author, b)
	})
	u.c.Comparisons += comparisons
	if covered {
		u.c.Rejected++
		return false
	}
	u.bin.push(p.Time, uint64(p.FP), p.Author)
	u.c.Insertions++
	u.c.AddStored(1)
	u.c.Accepted++
	return true
}
