package stream

import (
	"math/rand"
	"slices"
	"testing"

	"firehose/internal/core"
)

// TestTimelinesMatchNaiveAppend drives the chunked store and a plain
// map-of-slices model with the same random deliveries — skewed so some users
// cross many chunk boundaries and most stay inside the first chunk — and
// compares every user's history, including users that never received
// anything, out-of-range ids, and the state after a Reset.
func TestTimelinesMatchNaiveAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const users = 200
	var tl Timelines
	model := make(map[int32][]*core.Post)
	check := func(when string) {
		t.Helper()
		for u := int32(-1); u <= users+1; u++ {
			got := tl.Timeline(u)
			if got == nil {
				t.Fatalf("%s: Timeline(%d) is nil, want an empty slice", when, u)
			}
			if !slices.Equal(got, model[u]) {
				t.Fatalf("%s: user %d: %d posts, model has %d (or order differs)", when, u, len(got), len(model[u]))
			}
		}
	}
	deliver := func(n int) {
		for i := 0; i < n; i++ {
			p := &core.Post{ID: uint64(i + 1)}
			var to []int32
			for k := rng.Intn(4); k > 0; k-- {
				// Squaring skews towards low ids: user 0 receives thousands.
				f := rng.Float64()
				to = append(to, int32(f*f*f*users))
			}
			tl.Deliver(p, to)
			for _, u := range to {
				model[u] = append(model[u], p)
			}
		}
	}
	check("empty")
	deliver(20000)
	if n := len(model[0]); n < 3*timelineMaxChunk {
		t.Fatalf("the busiest user has %d posts; the test wants several full-size chunks", n)
	}
	check("after deliveries")

	// The returned slice is a copy: writing to it must not reach the store.
	got := tl.Timeline(0)
	got[0] = nil
	if tl.Timeline(0)[0] == nil {
		t.Fatal("Timeline returned a view of the store, not a copy")
	}

	tl.Reset()
	clear(model)
	check("after Reset")
	deliver(500)
	check("refilled after Reset")
}

// TestTimelinesChunkGrowth pins the allocation shape: chunk capacities double
// from timelineFirstChunk to timelineMaxChunk and stay there.
func TestTimelinesChunkGrowth(t *testing.T) {
	var tl Timelines
	p := &core.Post{}
	for i := 0; i < 4*timelineMaxChunk; i++ {
		tl.Deliver(p, []int32{3})
	}
	want := timelineFirstChunk
	for k, c := range tl.users[3] {
		if cap(c) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", k, cap(c), want)
		}
		want = min(2*want, timelineMaxChunk)
	}
}
