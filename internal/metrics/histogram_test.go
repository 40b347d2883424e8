package metrics

import (
	"math/rand"
	"testing"
	"time"
)

func TestHistogramObserveBucketPlacement(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int // -1 means overflow (Count only)
	}{
		{0, 0},
		{100 * time.Nanosecond, 0}, // on the bound: inclusive
		{101 * time.Nanosecond, 1}, // just above
		{time.Microsecond, 3},      // 1µs bound
		{time.Millisecond, 12},     // 1ms bound
		{time.Second, NumBuckets - 1},
		{2 * time.Second, -1},
		{-time.Second, 0}, // negative clamps to 0
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	if h.Count != uint64(len(cases)) {
		t.Fatalf("Count = %d, want %d", h.Count, len(cases))
	}
	want := [NumBuckets]uint64{}
	for _, c := range cases {
		if c.bucket >= 0 {
			want[c.bucket]++
		}
	}
	if h.Buckets != want {
		t.Fatalf("Buckets = %v, want %v", h.Buckets, want)
	}
	// Negative observation contributed 0 to the sum.
	wantSum := int64(0 + 100 + 101 + 1_000 + 1_000_000 + 1_000_000_000 + 2_000_000_000 + 0)
	if h.SumNanos != wantSum {
		t.Fatalf("SumNanos = %d, want %d", h.SumNanos, wantSum)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram: mean=%v p50=%v", h.Mean(), h.Quantile(0.5))
	}
	if s := h.String(); s != "count=0" {
		t.Fatalf("empty String = %q", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 observations of exactly 1µs: every quantile must land in the
	// (500ns, 1µs] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got <= 500*time.Nanosecond || got > time.Microsecond {
			t.Fatalf("q=%v: %v outside (500ns, 1µs]", q, got)
		}
	}
	// Quantiles are monotone in q.
	h = Histogram{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone: q=%v gives %v after %v", q, cur, prev)
		}
		prev = cur
	}
	// Out-of-range q clamps instead of misbehaving.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("out-of-range quantiles do not clamp")
	}
}

func TestHistogramOverflowQuantileFloor(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Second) // beyond the last bound
	}
	if got := h.Quantile(0.5); got != time.Duration(BucketBoundsNanos[NumBuckets-1]) {
		t.Fatalf("overflow p50 = %v, want last bound", got)
	}
}

func TestObserveSince(t *testing.T) {
	var h Histogram
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count != 1 {
		t.Fatalf("Count = %d", h.Count)
	}
	if h.SumNanos < int64(time.Millisecond) {
		t.Fatalf("SumNanos = %d, want >= 1ms", h.SumNanos)
	}
}

// TestHistogramMergeEqualsConcatenation is the merge property test the
// parallel engine's snapshot discipline relies on: observing a stream of
// durations into shards and merging the shards must produce exactly the
// histogram of observing the concatenated stream into one instance.
func TestHistogramMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		numShards := 1 + rng.Intn(8)
		shards := make([]Histogram, numShards)
		var whole Histogram
		n := rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Log-uniform-ish spread so every bucket (and the overflow
			// region) gets traffic.
			d := time.Duration(rng.Int63n(int64(10) << uint(rng.Intn(30))))
			whole.Observe(d)
			shards[rng.Intn(numShards)].Observe(d)
		}
		merged := MergeHistograms(shards...)
		if merged != whole {
			t.Fatalf("trial %d: merge of %d shards != histogram of concatenation\nmerged: %+v\nwhole:  %+v",
				trial, numShards, merged, whole)
		}
	}
}

// TestObserveN pins the batched observation: n decisions of d/n each, so
// Count keeps meaning "decisions" while SumNanos keeps the wall time.
func TestObserveN(t *testing.T) {
	var h Histogram
	h.ObserveN(3*time.Microsecond, 4) // 750ns each → the (500ns, 1µs] bucket
	if h.Count != 4 || h.SumNanos != 3_000 {
		t.Fatalf("count=%d sum=%d, want 4 and 3000", h.Count, h.SumNanos)
	}
	want := [NumBuckets]uint64{}
	want[3] = 4
	if h.Buckets != want {
		t.Fatalf("Buckets = %v, want %v", h.Buckets, want)
	}
	before := h
	h.ObserveN(time.Millisecond, 0)
	h.ObserveN(time.Millisecond, -2)
	if h != before {
		t.Fatalf("n <= 0 changed the histogram: %+v", h)
	}
	// n = 1 is Observe; an overflowing share counts in Count only.
	var one, obs Histogram
	one.ObserveN(42*time.Microsecond, 1)
	obs.Observe(42 * time.Microsecond)
	if one != obs {
		t.Fatalf("ObserveN(d, 1) = %+v, Observe(d) = %+v", one, obs)
	}
	var over Histogram
	over.ObserveN(10*time.Second, 2)
	if over.Count != 2 || over.Buckets != ([NumBuckets]uint64{}) {
		t.Fatalf("overflow share: %+v", over)
	}
	// Merge property: batched observations split across shards merge into
	// the histogram of observing them all in one.
	rng := rand.New(rand.NewSource(7))
	shards := make([]Histogram, 3)
	var whole Histogram
	for i := 0; i < 500; i++ {
		d := time.Duration(rng.Int63n(int64(10) << uint(rng.Intn(28))))
		n := rng.Intn(20)
		whole.ObserveN(d, n)
		shards[rng.Intn(len(shards))].ObserveN(d, n)
	}
	if merged := MergeHistograms(shards...); merged != whole {
		t.Fatalf("merge of ObserveN shards != whole\nmerged: %+v\nwhole:  %+v", merged, whole)
	}
}

// Counters.Merge must carry the embedded histogram along.
func TestCountersMergeCarriesDecisions(t *testing.T) {
	var a, b Counters
	a.Decisions.Observe(time.Microsecond)
	b.Decisions.Observe(time.Millisecond)
	a.Merge(b)
	if a.Decisions.Count != 2 {
		t.Fatalf("merged Decisions.Count = %d, want 2", a.Decisions.Count)
	}
	total := Sum(a, b)
	if total.Decisions.Count != 3 {
		t.Fatalf("Sum Decisions.Count = %d, want 3", total.Decisions.Count)
	}
}
