package stream

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
	seq := uint64(0)
	deliver := func(n int) {
		for i := 0; i < n; i++ {
			p := &core.Post{ID: uint64(i + 1)}
			var to []int32
			for k := rng.Intn(4); k > 0; k-- {
				// Squaring skews towards low ids: user 0 receives thousands.
				f := rng.Float64()
				to = append(to, int32(f*f*f*users))
			}
			seq++
			tl.Deliver(p, seq, to)
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
	if len(tl.log) < 3 {
		t.Fatalf("the log has %d chunks; the test wants several", len(tl.log))
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
	if posts, entries := tl.Size(); posts != 0 || entries != 0 {
		t.Fatalf("Size after Reset = %d, %d", posts, entries)
	}
	deliver(500)
	check("refilled after Reset")
}

// TestTimelinesStoreEachPostOnce: a post delivered to many users occupies one
// log entry carrying its sequence number, and a post delivered to no one
// occupies none; Size counts both kinds of state.
func TestTimelinesStoreEachPostOnce(t *testing.T) {
	var tl Timelines
	a, b, c := &core.Post{ID: 1}, &core.Post{ID: 2}, &core.Post{ID: 3}
	tl.Deliver(a, 10, []int32{0, 1, 2})
	tl.Deliver(b, 11, nil)
	tl.Deliver(c, 12, []int32{2})
	if posts, entries := tl.Size(); posts != 2 || entries != 4 {
		t.Fatalf("Size = %d posts, %d entries; want 2, 4", posts, entries)
	}
	got := tl.appendEntries(nil, 2)
	want := []logEntry{{post: a, seq: 10}, {post: c, seq: 12}}
	if !slices.Equal(got, want) {
		t.Fatalf("user 2 entries = %v, want %v", got, want)
	}
}

// TestTimelinesChunkGrowth pins the allocation shape: a history is chunks of
// 4-byte log positions whose capacities double from timelineFirstChunk to
// timelineMaxChunk and stay there.
func TestTimelinesChunkGrowth(t *testing.T) {
	var tl Timelines
	p := &core.Post{}
	for i := 0; i < 4*timelineMaxChunk; i++ {
		tl.Deliver(p, uint64(i+1), []int32{3})
	}
	if size := unsafe.Sizeof(tl.users[3][0][0]); size != 4 {
		t.Fatalf("a timeline position is %d bytes, want 4", size)
	}
	want := timelineFirstChunk
	for k, c := range tl.users[3] {
		if cap(c) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", k, cap(c), want)
		}
		want = min(2*want, timelineMaxChunk)
	}
}

// TestTimelinesRetainedBytesPerDelivery pins the layout's cost: about a
// thousand deliveries to each of 2,000 users must retain at most 6 bytes of
// heap per delivery once the posts themselves are accounted for. A history
// of post pointers costs at least 8.
func TestTimelinesRetainedBytesPerDelivery(t *testing.T) {
	const (
		users        = 2000
		postCount    = 20000
		usersPerPost = 100 // postCount*usersPerPost/users = 1000 per user
	)
	posts := make([]core.Post, postCount)
	to := make([][]int32, postCount)
	for i := range to {
		to[i] = make([]int32, usersPerPost)
		for j := range to[i] {
			to[i][j] = int32((i*usersPerPost + j) % users)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tl := new(Timelines)
	for i := range posts {
		tl.Deliver(&posts[i], uint64(i+1), to[i])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	_, deliveries := tl.Size()
	runtime.KeepAlive(tl)
	runtime.KeepAlive(posts)
	runtime.KeepAlive(to)
	if deliveries != postCount*usersPerPost {
		t.Fatalf("%d deliveries, want %d", deliveries, postCount*usersPerPost)
	}
	perDelivery := float64(after.HeapAlloc-before.HeapAlloc) / float64(deliveries)
	if perDelivery > 6 {
		t.Fatalf("the store retains %.2f B per delivery, want <= 6", perDelivery)
	}
	t.Logf("%.2f retained bytes per delivery", perDelivery)
}

// TestTimelinesPanicAtPositionCeiling: positions are uint32, so the log
// refuses its 2^32-th post instead of wrapping into another post's slot.
func TestTimelinesPanicAtPositionCeiling(t *testing.T) {
	tl := Timelines{posts: timelineMaxPosts}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2^32") || !strings.Contains(msg, "ROADMAP 5(c)") {
			t.Fatalf("Deliver at the ceiling: recovered %q, want a panic naming 2^32 and ROADMAP 5(c)", msg)
		}
	}()
	tl.Deliver(&core.Post{}, 1, []int32{0})
}

// BenchmarkTimelinesDeliver appends posts delivered to 25 users each, spread
// over 5,000 users: the store's per-post cost on the ingest path. The store
// restarts every resetEvery posts (≈1,300 deliveries per user, past the
// largest chunk size) so a long run does not hold gigabytes.
func BenchmarkTimelinesDeliver(b *testing.B) {
	const users, perPost, resetEvery = 5000, 25, 1 << 18
	rng := rand.New(rand.NewSource(1))
	to := make([][]int32, 1024)
	for i := range to {
		to[i] = make([]int32, perPost)
		for j := range to[i] {
			to[i][j] = int32(rng.Intn(users))
		}
	}
	p := &core.Post{}
	var tl Timelines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%resetEvery == 0 {
			tl.Reset()
		}
		tl.Deliver(p, uint64(i+1), to[i%len(to)])
	}
}
