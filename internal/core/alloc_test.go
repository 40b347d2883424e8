//go:build !race

// The AllocsPerRun assertions live behind !race: the race detector
// instruments allocations and would report spurious counts.

package core

import (
	"math/rand"
	"testing"

	"firehose/internal/simhash"
)

// steadyStream yields an endless clustered post stream with a constant
// arrival rate, so after warm-up the λt window holds a roughly constant
// number of posts and the bins neither grow nor shrink.
func steadyStream(rng *rand.Rand, nAuthors int) func() *Post {
	bases := make([]simhash.Fingerprint, 6)
	for i := range bases {
		bases[i] = simhash.Fingerprint(rng.Uint64())
	}
	p := &Post{}
	var id uint64
	var now int64
	return func() *Post {
		id++
		now += 10
		fp := bases[rng.Intn(len(bases))]
		for k := rng.Intn(7); k > 0; k-- {
			fp ^= 1 << uint(rng.Intn(64))
		}
		// Reuse one Post: Offer implementations copy what they keep.
		p.ID, p.Author, p.Time, p.FP = id, int32(rng.Intn(nAuthors)), now, fp
		return p
	}
}

// The three strict pins below fix Index: IndexOff — they guard the exact
// SoA scan path, which is unconditionally allocation-free. The indexed path
// is only amortized allocation-free (index bucket slices are recycled, but
// churn between buckets of different capacities occasionally regrows one)
// and gets its own tolerance-based pin in TestIndexedPathSteadyStateAllocs.

// TestUniBinOfferSteadyStateAllocs pins the SoA hot path: once the window is
// warm, an Offer performs zero heap allocations.
func TestUniBinOfferSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, _ := randomScenario(rng, 10, 1, 0.3)
	u := NewUniBin(g, Thresholds{LambdaC: 6, LambdaT: 2000, LambdaA: 0.7, Index: IndexOff})
	next := steadyStream(rng, 10)
	for i := 0; i < 2000; i++ {
		u.Offer(next())
	}
	if avg := testing.AllocsPerRun(1000, func() { u.Offer(next()) }); avg != 0 {
		t.Fatalf("UniBin.Offer allocates %.2f objects per call in steady state, want 0", avg)
	}
}

// TestIndexedPathSteadyStateAllocs pins the index-backed Offer path. The
// bound is a small tolerance rather than a hard zero: the per-call cost must
// stay amortized near zero (bucket recycling working), and any structural
// regression — an escaping predicate closure, a per-probe allocation, a
// dedup map in Covered — shows up as ≥ 1 alloc per call and fails loudly.
func TestIndexedPathSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g, _ := randomScenario(rng, 10, 1, 0.3)
	u := NewUniBin(g, Thresholds{LambdaC: 3, LambdaT: 2000, LambdaA: 0.7})
	if !u.IndexActive() {
		t.Fatal("λc=3 should resolve to an active index under IndexAuto")
	}
	next := steadyStream(rng, 10)
	for i := 0; i < 4000; i++ {
		u.Offer(next())
	}
	if avg := testing.AllocsPerRun(2000, func() { u.Offer(next()) }); avg > 0.1 {
		t.Fatalf("indexed UniBin.Offer allocates %.2f objects per call in steady state, want amortized ~0", avg)
	}
}

// TestMultiUserOfferSteadyStateAllocs pins the routed path: the scratch
// delivery buffer makes M_UniBin.Offer allocation-free after warm-up.
func TestMultiUserOfferSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nAuthors := 10
	g, _ := randomScenario(rng, nAuthors, 1, 0.3)
	subs := randomSubscriptions(rng, 6, nAuthors)
	m, err := NewMultiUser(AlgUniBin, g, subs, Thresholds{LambdaC: 6, LambdaT: 2000, LambdaA: 0.7, Index: IndexOff})
	if err != nil {
		t.Fatal(err)
	}
	next := steadyStream(rng, nAuthors)
	for i := 0; i < 2000; i++ {
		m.Offer(next())
	}
	if avg := testing.AllocsPerRun(1000, func() { m.Offer(next()) }); avg != 0 {
		t.Fatalf("MultiUser.Offer allocates %.2f objects per call in steady state, want 0", avg)
	}
}

// TestSharedMultiUserOfferSteadyStateAllocs extends the pin to S_UniBin,
// whose delivery fan-out appends whole component user lists.
func TestSharedMultiUserOfferSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nAuthors := 10
	g, _ := randomScenario(rng, nAuthors, 1, 0.3)
	subs := randomSubscriptions(rng, 6, nAuthors)
	s, err := NewSharedMultiUser(AlgUniBin, g, subs, Thresholds{LambdaC: 6, LambdaT: 2000, LambdaA: 0.7, Index: IndexOff})
	if err != nil {
		t.Fatal(err)
	}
	next := steadyStream(rng, nAuthors)
	for i := 0; i < 2000; i++ {
		s.Offer(next())
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Offer(next()) }); avg != 0 {
		t.Fatalf("SharedMultiUser.Offer allocates %.2f objects per call in steady state, want 0", avg)
	}
}

// TestFingerprintAllocs pins the fused fingerprint kernel: no intermediate
// string, no token slice — nothing on the heap, ASCII or not.
func TestFingerprintAllocs(t *testing.T) {
	for _, text := range []string{benchTweet, "émoji ☕ 中文 Köln \u0130stanbul", ""} {
		if avg := testing.AllocsPerRun(100, func() { fingerprintSink = Fingerprint(text) }); avg != 0 {
			t.Fatalf("Fingerprint(%q) allocates %.2f objects per call, want 0", text, avg)
		}
	}
}
