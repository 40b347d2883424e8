// Package metrics provides the instrumentation counters the paper reports in
// its evaluation (Section 6): pairwise post comparisons, post-copy insertions
// into bins, and memory consumption measured as stored post copies. Counters
// are plain integers — the streaming algorithms are single-goroutine by
// design (a real-time decision per arrival); concurrent engines own one
// Counters per worker and merge.
package metrics

import (
	"fmt"
	"math"
)

// Counters accumulates the cost metrics of a diversification run.
//
// Accepted and Rejected always count decisions — one per (post, deciding
// instance) — and Decisions.Count equals their sum. The storage counters
// describe the solver's physical bins: for a solver that shares one stored
// copy among several deciding instances (S_UniBin's per-component rings) a
// comparison is one window entry visited, an insertion one post stored, an
// eviction one post expired and StoredPeak the sum of each ring's own peak —
// not the per-instance counts the unshared solvers report.
type Counters struct {
	// Comparisons counts pairwise post coverage checks (one per candidate
	// post examined on an arrival).
	Comparisons uint64
	// Insertions counts post-copy insertions into bins. A post stored in k
	// bins contributes k insertions, matching the paper's accounting.
	Insertions uint64
	// Evictions counts post copies removed from bins by the λt window.
	Evictions uint64
	// Accepted counts posts emitted into the diversified sub-stream Z.
	Accepted uint64
	// Rejected counts posts pruned as redundant.
	Rejected uint64

	storedLive int64
	// StoredPeak is the maximum number of post copies simultaneously
	// resident across all bins — the paper's RAM metric up to a constant
	// per-copy factor.
	StoredPeak int64

	// Decisions is the latency distribution of the per-post decision (one
	// Offer on one algorithm instance). It follows the same ownership
	// discipline as the scalar counters: mutated without synchronization by
	// the single goroutine driving the instance, snapshotted under the
	// owner's lock, merged across instances and workers by Merge/Sum.
	Decisions Histogram
}

// AddStored records n new live post copies and updates the peak.
func (c *Counters) AddStored(n int) {
	c.storedLive += int64(n)
	if c.storedLive > c.StoredPeak {
		c.StoredPeak = c.storedLive
	}
}

// RemoveStored records n evicted post copies.
func (c *Counters) RemoveStored(n int) {
	c.storedLive -= int64(n)
	if c.storedLive < 0 {
		panic(fmt.Sprintf("metrics: live stored copies went negative (%d)", c.storedLive))
	}
}

// StoredLive returns the current number of live post copies.
func (c *Counters) StoredLive() int64 { return c.storedLive }

// SetStored overwrites the live and peak stored-copy counts wholesale — the
// checkpoint-restore hook, where both values come from a validated snapshot
// rather than from incremental Add/RemoveStored bookkeeping. live must be
// non-negative and no greater than peak; restore code validates before
// calling, so a violation here is a programming error and panics like
// RemoveStored does.
func (c *Counters) SetStored(live, peak int64) {
	if live < 0 || peak < live {
		panic(fmt.Sprintf("metrics: SetStored(%d, %d): live must be in [0, peak]", live, peak))
	}
	c.storedLive = live
	c.StoredPeak = peak
}

// Processed returns the total number of posts offered.
func (c *Counters) Processed() uint64 { return c.Accepted + c.Rejected }

// PruneRatio returns the fraction of posts pruned as redundant. A run that
// processed no posts has ratio 0 (not NaN), so reporting code can divide
// blindly.
func (c *Counters) PruneRatio() float64 {
	p := c.Processed()
	if p == 0 {
		return 0
	}
	return float64(c.Rejected) / float64(p)
}

// EstimateRAMBytes converts the peak stored-copy count into bytes given an
// average per-copy footprint (fingerprint + timestamp + author + text
// reference and bin bookkeeping). A non-positive bytesPerCopy estimates 0
// rather than a negative footprint, and a product that would overflow int64
// saturates at math.MaxInt64 — peaks summed across many merged workers times
// a large per-copy factor must not wrap into a negative RAM figure.
func (c *Counters) EstimateRAMBytes(bytesPerCopy int) int64 {
	if bytesPerCopy <= 0 || c.StoredPeak <= 0 {
		return 0
	}
	if c.StoredPeak > math.MaxInt64/int64(bytesPerCopy) {
		return math.MaxInt64
	}
	return c.StoredPeak * int64(bytesPerCopy)
}

// Merge adds other's counts into c. Peaks are summed, which upper-bounds the
// true combined peak; callers merging workers that ran concurrently get a
// conservative RAM estimate, and callers merging sequential phases get an
// over-estimate they can ignore in favor of per-phase peaks.
func (c *Counters) Merge(other Counters) {
	c.Comparisons += other.Comparisons
	c.Insertions += other.Insertions
	c.Evictions += other.Evictions
	c.Accepted += other.Accepted
	c.Rejected += other.Rejected
	c.storedLive += other.storedLive
	c.StoredPeak += other.StoredPeak
	c.Decisions.Merge(other.Decisions)
}

// Sum merges a set of counter snapshots into one total. It is the merge step
// of concurrent engines: each worker's Counters value is snapshotted under
// that worker's lock, and the (unsynchronized) value copies are summed here
// without touching live counters.
func Sum(snaps ...Counters) Counters {
	var total Counters
	for _, s := range snaps {
		total.Merge(s)
	}
	return total
}

// String formats the counters for experiment output.
func (c *Counters) String() string {
	return fmt.Sprintf("comparisons=%d insertions=%d evictions=%d accepted=%d rejected=%d peakCopies=%d",
		c.Comparisons, c.Insertions, c.Evictions, c.Accepted, c.Rejected, c.StoredPeak)
}
