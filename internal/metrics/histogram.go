package metrics

import (
	"fmt"
	"strings"
	"time"
)

// NumBuckets is the number of finite latency buckets in a Histogram.
// Observations above the last bound are counted only in Count (the implicit
// +Inf bucket of the Prometheus exposition).
const NumBuckets = 20

// BucketBoundsNanos are the inclusive upper bounds of the latency buckets, in
// nanoseconds. They span 100ns..1s in a 1/2.5/5 decade pattern — wide enough
// to cover a sub-microsecond UniBin decision and a multi-millisecond queue
// stall in the same histogram. All Histograms share these bounds, which is
// what makes two Histograms mergeable by plain bucket-wise addition.
var BucketBoundsNanos = [NumBuckets]int64{
	100, 250, 500,
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000,
	100_000_000, 1_000_000_000,
}

// Histogram is a fixed-bucket latency histogram. Like Counters it is a plain
// value with no internal locking: the streaming decision path is
// single-goroutine by design, so each algorithm instance (or engine worker)
// owns one Histogram and mutates it without synchronization; concurrent
// engines snapshot a value copy under the owner's lock and Merge the copies.
// The fixed bucket layout keeps the value copy a flat ~200 bytes and the
// merge a loop of integer additions — the same discipline as Counters.Merge.
type Histogram struct {
	// Count is the total number of observations, including those above the
	// last bucket bound.
	Count uint64
	// SumNanos is the sum of all observed durations in nanoseconds.
	SumNanos int64
	// Buckets[i] counts observations d with bound[i-1] < d <= bound[i]
	// (non-cumulative). The Prometheus exposition cumulates at write time.
	Buckets [NumBuckets]uint64
}

// Observe records one duration. Negative durations (possible under clock
// adjustments when the caller did not use a monotonic source) clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	h.Count++
	h.SumNanos += n
	for i, bound := range BucketBoundsNanos {
		if n <= bound {
			h.Buckets[i]++
			return
		}
	}
	// Above the last bound: counted in Count only.
}

// ObserveSince records the elapsed time since start. It is designed for the
// one-line instrumentation pattern
//
//	defer c.Decisions.ObserveSince(time.Now())
//
// where time.Now() is evaluated at the defer statement, not at return.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start))
}

// ObserveN records one measurement d that covered n decisions as n
// observations of d/n each: Count grows by n, SumNanos by d, and the bucket
// of d/n by n. A solver that decides for many instances in one pass keeps
// Count equal to its decision count this way. n <= 0 records nothing.
func (h *Histogram) ObserveN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	total := d.Nanoseconds()
	if total < 0 {
		total = 0
	}
	h.Count += uint64(n)
	h.SumNanos += total
	each := total / int64(n)
	for i, bound := range BucketBoundsNanos {
		if each <= bound {
			h.Buckets[i] += uint64(n)
			return
		}
	}
}

// ObserveNSince is ObserveN of the time elapsed since start, for the
// deferred latency idiom
//
//	defer c.Decisions.ObserveNSince(time.Now(), n)
func (h *Histogram) ObserveNSince(start time.Time, n int) {
	h.ObserveN(time.Since(start), n)
}

// Merge adds other's observations into h. Because all Histograms share one
// bucket layout, the merge of per-worker histograms equals the histogram of
// the concatenated observation streams (property-tested).
func (h *Histogram) Merge(other Histogram) {
	h.Count += other.Count
	h.SumNanos += other.SumNanos
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// MergeHistograms sums a set of histogram snapshots, mirroring Sum for
// Counters.
func MergeHistograms(snaps ...Histogram) Histogram {
	var total Histogram
	for _, s := range snaps {
		total.Merge(s)
	}
	return total
}

// Mean returns the average observed duration, or 0 for an empty histogram.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNanos / int64(h.Count))
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket containing the target rank. Observations above the last
// bound are attributed to the last bound, so tail quantiles falling in the
// overflow region report 1s — a floor, not an exact value. An empty
// histogram reports 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum uint64
	lower := int64(0)
	for i, bound := range BucketBoundsNanos {
		inBucket := h.Buckets[i]
		if inBucket > 0 && float64(cum+inBucket) >= rank {
			frac := (rank - float64(cum)) / float64(inBucket)
			if frac < 0 {
				frac = 0
			}
			return time.Duration(lower) + time.Duration(frac*float64(bound-lower))
		}
		cum += inBucket
		lower = bound
	}
	// Rank lies in the overflow region.
	return time.Duration(BucketBoundsNanos[NumBuckets-1])
}

// String summarizes the histogram for experiment output.
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "count=0"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "count=%d mean=%v p50=%v p95=%v p99=%v",
		h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	return sb.String()
}
