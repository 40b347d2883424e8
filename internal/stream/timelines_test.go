package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"firehose/internal/core"
)

// served is what a timeline read serves of a post: fingerprint excluded.
func served(p core.Post) core.Post {
	p.FP = 0
	return p
}

// randomText returns a text of random length mixing ASCII and multi-byte
// UTF-8; one call in 4,000 returns one longer than an arena page.
func randomText(rng *rand.Rand) string {
	if rng.Intn(4000) == 0 {
		return strings.Repeat("ü", arenaPage/2+1+rng.Intn(1000))
	}
	var b strings.Builder
	for n := rng.Intn(300); n > 0; n-- {
		switch rng.Intn(8) {
		case 0:
			b.WriteString("é")
		case 1:
			b.WriteString("火")
		case 2:
			b.WriteString("🔥")
		default:
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
	}
	return b.String()
}

// TestTimelinesMatchNaiveAppend is the store's value round trip: it drives
// the store and a plain map-of-slices model with the same random deliveries
// — texts of random length, multi-byte UTF-8, some longer than an arena page,
// and users skewed so some cross many position chunks while others receive
// one post — and compares every user's tail (sequence numbers, ids, authors,
// times, texts, history length) for n of 0, 1, the length and past it,
// including users that never received anything, out-of-range ids, and the
// state after a Reset.
func TestTimelinesMatchNaiveAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const users = 200
	var tl Timelines
	type entry struct {
		seq  uint64
		post core.Post
	}
	model := make(map[int32][]entry)
	check := func(when string) {
		t.Helper()
		for u := int32(-1); u <= users+1; u++ {
			want := model[u]
			for _, n := range []int{0, 1, len(want), len(want) + 1, math.MaxInt} {
				got, total := tl.appendTail(nil, u, n)
				if total != len(want) {
					t.Fatalf("%s: user %d: history length %d, model has %d", when, u, total, len(want))
				}
				suffix := want[len(want)-min(n, len(want)):]
				if len(got) != len(suffix) {
					t.Fatalf("%s: user %d, n=%d: %d posts, want %d", when, u, n, len(got), len(suffix))
				}
				for i, e := range suffix {
					if got[i].seq != e.seq || got[i].post != e.post {
						t.Fatalf("%s: user %d, n=%d, post %d: got seq %d %+.60v, want seq %d %+.60v",
							when, u, n, i, got[i].seq, got[i].post, e.seq, e.post)
					}
				}
			}
		}
	}
	seq := uint64(0)
	deliver := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			p := core.Post{ID: seq * 3, Author: int32(rng.Intn(50)), Time: int64(seq) * 7,
				Text: randomText(rng), FP: 0xF00D}
			var to []int32
			for k := rng.Intn(4); k > 0; k-- {
				// Cubing skews towards low ids: user 0 receives thousands.
				f := rng.Float64()
				to = append(to, int32(f*f*f*users))
			}
			slices.Sort(to)
			to = slices.Compact(to)
			if i == 97 {
				// A user that receives this post and no other.
				to = []int32{users}
			}
			tl.Deliver(&p, seq, to)
			for _, u := range to {
				model[u] = append(model[u], entry{seq, served(p)})
			}
		}
	}
	check("empty")
	deliver(20000)
	if n := len(positionChain(&tl, 0)); n < 20 {
		t.Fatalf("the busiest user's positions fill %d chunks; the test wants a long chain", n)
	}
	if len(model[users]) != 1 {
		t.Fatalf("user %d received %d posts; the test wants one", users, len(model[users]))
	}
	var own, shared int
	for _, b := range tl.mem.pages {
		if len(b) == arenaPage {
			shared++
		} else {
			own++
		}
	}
	if shared < 3 || own == 0 {
		t.Fatalf("%d arena pages and %d oversize ones; the test wants several and at least one", shared, own)
	}
	if len(tl.log) < 3 {
		t.Fatalf("the log has %d chunks; the test wants several", len(tl.log))
	}
	check("after deliveries")

	// A read returns copies: writing to them must not reach the store.
	got, _ := tl.appendTail(nil, 0, 1)
	got[0].post.ID, got[0].post.Text = 0, ""
	if again, _ := tl.appendTail(nil, 0, 1); again[0].post.ID == 0 || again[0].post.Text == "" {
		t.Fatal("a read returned a view of the store, not a copy")
	}

	tl.Reset()
	clear(model)
	check("after Reset")
	if posts, entries, bytes := tl.Size(); posts != 0 || entries != 0 || bytes != 0 {
		t.Fatalf("Size after Reset = %d, %d, %d", posts, entries, bytes)
	}
	deliver(500)
	check("refilled after Reset")
}

// TestTimelinesStoreEachPostOnce: a post delivered to many users occupies one
// log record carrying its sequence number, and a post delivered to no one
// occupies none; Size counts both kinds of state.
func TestTimelinesStoreEachPostOnce(t *testing.T) {
	var tl Timelines
	a := core.Post{ID: 1, Author: 4, Time: 100, Text: "ferry sinks", FP: 1}
	b := core.Post{ID: 2, Author: 5, Time: 101, Text: "unseen", FP: 2}
	c := core.Post{ID: 3, Author: 6, Time: 102, Text: "markets rally", FP: 3}
	tl.Deliver(&a, 10, []int32{0, 1, 2})
	tl.Deliver(&b, 11, nil)
	tl.Deliver(&c, 12, []int32{2})
	if posts, entries, _ := tl.Size(); posts != 2 || entries != 4 {
		t.Fatalf("Size = %d posts, %d entries; want 2, 4", posts, entries)
	}
	got, total := tl.appendTail(nil, 2, math.MaxInt)
	want := []timelinePost{{seq: 10, post: served(a)}, {seq: 12, post: served(c)}}
	if total != 2 || !slices.Equal(got, want) {
		t.Fatalf("user 2 = %v (length %d), want %v", got, total, want)
	}
}

// positionChain returns the chunks of user u's position chain, oldest first,
// following each chunk's header from the history's first chunk to its tail.
func positionChain(tl *Timelines, u int32) []aref {
	h := tl.users[u]
	chain := []aref{h.first}
	for c := h.first; c != h.tail; {
		c = *(*aref)(tl.mem.ptr(c))
		chain = append(chain, c)
	}
	return chain
}

// TestTimelinesChunkGrowth pins the position layout: a history is a chain of
// timelineChunk-byte chunks, each linked from its predecessor's header, and
// every chunk decodes on its own up to its zeroed tail — no uvarint straddles
// two chunks, and none that fitted was pushed into the next. The first
// position is 0 (coded as 1, since a zero byte ends a chunk), gaps of up to
// 300 posts make one- and two-byte uvarints, and both kinds end up opening a
// chunk. A read spanning every chunk returns every position in order. Log
// chunk descriptors, chunk headers and histories hold no pointers, so nothing
// the store keeps needs scanning by the garbage collector.
func TestTimelinesChunkGrowth(t *testing.T) {
	var tl Timelines
	p := &core.Post{}
	rng := rand.New(rand.NewSource(3))
	const deliveries = 1500
	var want []uint32
	for i := 0; i < deliveries; i++ {
		if i > 0 {
			for k := rng.Intn(300); k > 0; k-- {
				tl.Deliver(p, tl.posts+1, []int32{4})
			}
		}
		want = append(want, uint32(tl.posts))
		tl.Deliver(p, tl.posts+1, []int32{3})
	}
	if want[0] != 0 {
		t.Fatalf("user 3's first position is %d, want 0", want[0])
	}

	chain := positionChain(&tl, 3)
	if len(chain) < 10 {
		t.Fatalf("%d deliveries fill %d chunks; the test wants many", deliveries, len(chain))
	}
	var got []uint32
	next := uint64(0)       // the newest decoded position + 1
	opened := map[int]int{} // uvarint length → chunks it opened
	for k, c := range chain {
		body := tl.mem.bytes(aref{c.page, c.off + chunkHeader}, chunkBody)
		used := 0
		for used < len(body) && body[used] != 0 {
			v, n := binary.Uvarint(body[used:])
			if n <= 0 {
				t.Fatalf("chunk %d ends in a partial uvarint", k)
			}
			if k > 0 && used == 0 {
				opened[n]++
			}
			used += n
			next += v
			got = append(got, uint32(next-1))
		}
		if k == len(chain)-1 {
			if uint32(used) != tl.users[3].used {
				t.Fatalf("the tail chunk decodes %d bytes, the history says %d are used", used, tl.users[3].used)
			}
			break
		}
		// The uvarint that opened the next chunk did not fit in this one.
		nb := tl.mem.bytes(aref{chain[k+1].page, chain[k+1].off + chunkHeader}, chunkBody)
		if _, n := binary.Uvarint(nb); used+n <= len(body) {
			t.Fatalf("chunk %d uses %d of %d bytes, yet the %d-byte uvarint after it went to the next chunk",
				k, used, len(body), n)
		}
		if slices.ContainsFunc(body[used:], func(b byte) bool { return b != 0 }) {
			t.Fatalf("chunk %d has bytes after its zero terminator", k)
		}
	}
	if opened[1] == 0 || opened[2] == 0 {
		t.Fatalf("chunks opened by one-byte uvarints: %d, by two-byte ones: %d; the test wants both", opened[1], opened[2])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the chain decodes %d positions, want %d (or they differ)", len(got), len(want))
	}

	tail, total := tl.appendTail(nil, 3, math.MaxInt)
	if total != deliveries || len(tail) != deliveries {
		t.Fatalf("a read over the whole chain returns %d of %d posts, want %d", len(tail), total, deliveries)
	}
	for i, tp := range tail {
		// Every post was delivered at sequence number position + 1.
		if tp.seq != uint64(want[i])+1 {
			t.Fatalf("read post %d has seq %d, want %d", i, tp.seq, want[i]+1)
		}
	}

	for _, v := range []any{logChunk{}, history{}, aref{}} {
		integersOnly(t, reflect.TypeOf(v))
	}
}

// integersOnly fails the test unless every field of struct type rt, nested
// structs included, is an integer.
func integersOnly(t *testing.T, rt reflect.Type) {
	t.Helper()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch k := f.Type.Kind(); {
		case k == reflect.Struct:
			integersOnly(t, f.Type)
		case k < reflect.Int || k > reflect.Uint64:
			t.Fatalf("%s field %s is a %v, want an integer", rt.Name(), f.Name, k)
		}
	}
}

// TestTimelinesDoNotPinDeliveredPosts: Deliver copies what it keeps, so a
// batch slab and the buffer its texts point into are collectable once the
// caller drops them, however many users received the posts.
func TestTimelinesDoNotPinDeliveredPosts(t *testing.T) {
	var tl Timelines
	freed := make(chan string, 2)
	func() {
		raw := make([]byte, 0, 256*64)
		slab := make([]core.Post, 256)
		for i := range slab {
			text := fmt.Sprintf("post %d of the batch, long enough to matter", i)
			raw = append(raw, text...)
			// Texts point into raw the way a zero-copy decoder's would.
			slab[i] = core.Post{ID: uint64(i + 1), Time: int64(i),
				Text: unsafe.String(&raw[len(raw)-len(text)], len(text))}
		}
		runtime.SetFinalizer(&slab[0], func(*core.Post) { freed <- "slab" })
		runtime.SetFinalizer(&raw[0], func(*byte) { freed <- "texts" })
		for i := range slab {
			tl.Deliver(&slab[i], uint64(i+1), []int32{int32(i % 7), 9})
		}
	}()
	for seen := 0; seen < 2; {
		runtime.GC()
		select {
		case <-freed:
			seen++
		case <-time.After(2 * time.Second):
			t.Fatalf("after GC, %d of the batch slab and its text buffer were freed; the store pins the rest", seen)
		}
	}
	if got, _ := tl.appendTail(nil, 9, 1); got[0].post.Text != "post 255 of the batch, long enough to matter" {
		t.Fatalf("newest post of user 9 reads %q", got[0].post.Text)
	}
	runtime.KeepAlive(&tl)
}

// TestTimelinesRetainedBytesPerDelivery pins the layout's cost: about a
// thousand deliveries to each of 2,000 users, of posts with 40-byte texts,
// must map at most 2.6 bytes per delivery — records, texts and positions all
// counted, since the store copies them, and every page counted whole — and
// the process's count of mapped arena bytes must grow by exactly what Size
// reports. Four-byte positions alone cost 4. Where the pages lie outside the
// Go heap, the heap must grow by at most 0.1 bytes per delivery: only the
// per-user index and the log's chunk table live there.
func TestTimelinesRetainedBytesPerDelivery(t *testing.T) {
	const (
		users        = 2000
		postCount    = 20000
		usersPerPost = 100 // postCount*usersPerPost/users = 1000 per user
	)
	posts := make([]core.Post, postCount)
	for i := range posts {
		posts[i] = core.Post{ID: uint64(i + 1), Time: int64(i), Text: fmt.Sprintf("%040d", i)}
	}
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
	mappedBefore := mappedBytes.Load()
	tl := new(Timelines)
	for i := range posts {
		tl.Deliver(&posts[i], uint64(i+1), to[i])
	}
	mapped := mappedBytes.Load() - mappedBefore
	runtime.GC()
	runtime.ReadMemStats(&after)
	_, deliveries, bytes := tl.Size()
	runtime.KeepAlive(tl)
	runtime.KeepAlive(posts)
	runtime.KeepAlive(to)
	if deliveries != postCount*usersPerPost {
		t.Fatalf("%d deliveries, want %d", deliveries, postCount*usersPerPost)
	}
	perDelivery := float64(bytes) / float64(deliveries)
	if perDelivery > 2.6 {
		t.Fatalf("the store maps %.2f B per delivery, want <= 2.6", perDelivery)
	}
	if mapped != int64(bytes) {
		t.Fatalf("the store counts %d bytes but mapped %d", bytes, mapped)
	}
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	heapPerDelivery := float64(heap) / float64(deliveries)
	if pagesOffHeap && heapPerDelivery > 0.1 {
		t.Fatalf("the Go heap grew by %.3f B per delivery, want <= 0.1", heapPerDelivery)
	}
	t.Logf("%.2f mapped bytes per delivery (%d bytes); the Go heap grew by %.3f B per delivery", perDelivery, bytes, heapPerDelivery)
}

// TestTimelinesPanicAtPositionCeiling: positions are uint32, so the log
// refuses its 2^32-th post instead of wrapping into another post's slot.
func TestTimelinesPanicAtPositionCeiling(t *testing.T) {
	tl := Timelines{posts: timelineMaxPosts}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2^32") || !strings.Contains(msg, "truncates its oldest posts") {
			t.Fatalf("Deliver at the ceiling: recovered %q, want a panic naming 2^32 and truncating the oldest posts", msg)
		}
	}()
	tl.Deliver(&core.Post{}, 1, []int32{0})
}

// TestTimelinesPanicOnRepeatedUser: a user listed twice for one post is a
// solver bug, and the position chain cannot code a repeated position (its
// delta is the zero byte that ends a chunk), so Deliver panics naming both.
func TestTimelinesPanicOnRepeatedUser(t *testing.T) {
	var tl Timelines
	tl.Deliver(&core.Post{ID: 1}, 1, []int32{2})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "user 2 is listed twice for post 7") {
			t.Fatalf("Deliver with a repeated user: recovered %q", msg)
		}
	}()
	tl.Deliver(&core.Post{ID: 7}, 2, []int32{1, 2, 2})
}

// TestTimelinesLongTextOwnMapping: an entry longer than an arena page gets
// a mapping of its own, exactly its size, and leaves the open page open, so
// the entry after it lands next to the one before it. All three read back.
func TestTimelinesLongTextOwnMapping(t *testing.T) {
	var tl Timelines
	long := strings.Repeat("火", arenaPage/3+1) // over 1 MiB of text
	posts := []core.Post{
		{ID: 1, Author: 2, Time: 10, Text: "before"},
		{ID: 2, Author: 3, Time: 11, Text: long},
		{ID: 3, Author: 4, Time: 12, Text: "after"},
	}
	for i := range posts {
		tl.Deliver(&posts[i], uint64(i+1), []int32{5})
	}
	if len(tl.mem.pages) != 2 {
		t.Fatalf("the store mapped %d pages, want the open page and one for the long entry", len(tl.mem.pages))
	}
	own := tl.mem.pages[1]
	if len(own) <= len(long) || len(own) > len(long)+maxHeader {
		t.Fatalf("the long entry's mapping is %d bytes for a %d-byte text; want the text and its header alone", len(own), len(long))
	}
	before, after := tl.at(0), tl.at(2)
	if before.text.page != 0 || after.text.page != 0 || after.text.off <= before.text.off {
		t.Fatalf("the entries around the long one lie at %+v and %+v; want both on the open page, in order", before.text, after.text)
	}
	got, _ := tl.appendTail(nil, 5, math.MaxInt)
	for i, tp := range got {
		if tp.post != served(posts[i]) || tp.seq != uint64(i+1) {
			t.Fatalf("post %d reads back as seq %d %+.40v, want %+.40v", i, tp.seq, tp.post, posts[i])
		}
	}
}

// TestTimelinesPanicAtLocationLimit: a location keeps its entry's page as a
// difference from its chunk's base page in the bits above the offset, so a
// difference that does not fit panics naming the limit instead of wrapping
// onto another page; the largest one that fits codes exactly.
func TestTimelinesPanicAtLocationLimit(t *testing.T) {
	const base = 7
	last := aref{page: base + locPageLimit - 1, off: arenaPage - 1}
	if loc := packLoc(base, last); base+loc>>arenaPageShift != last.page || loc&(arenaPage-1) != last.off {
		t.Fatalf("packLoc(%d, %+v) = %#x does not decode back", base, last, loc)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "more than 4096 arena pages") {
			t.Fatalf("packLoc past the limit: recovered %q, want a panic naming 4096 arena pages", msg)
		}
	}()
	packLoc(base, aref{page: base + locPageLimit})
}

// TestTimelinesBytesPerPost pins what the log costs per post beside its
// text: 100,000 posts with 100-byte texts, each delivered to one of 5,000
// users in turn, must map at most 30 bytes per post more than their texts —
// entry headers, locations, positions, alignment and every page counted
// whole. A 40-byte fixed record alone would cost more.
func TestTimelinesBytesPerPost(t *testing.T) {
	const postCount, users, textLen = 100000, 5000, 100
	var tl Timelines
	defer tl.Reset()
	text := strings.Repeat("x", textLen)
	for i := 0; i < postCount; i++ {
		p := core.Post{ID: uint64(i + 1), Author: int32(i % 997), Time: int64(i) * 13, Text: text}
		tl.Deliver(&p, uint64(i+1), []int32{int32(i % users)})
	}
	posts, _, bytes := tl.Size()
	perPost := float64(bytes-posts*textLen) / float64(posts)
	if perPost > 30 {
		t.Fatalf("the store maps %.1f B per post beside the texts, want <= 30", perPost)
	}
	t.Logf("%.1f mapped bytes per post beside the texts (%d bytes in all)", perPost, bytes)
}

// FuzzTimelines drives the store with posts built from the fuzz input and
// compares every user's tail for several n, and the Size counts, with a
// plain per-user slice model. Each post takes four bytes of prog, read
// cyclically, so count posts cross 1,024-entry log chunks however short prog
// is: the id moves by a signed step and now and then by 2^40, so it lies
// above and below its chunk's first id; the time steps back as well as
// forward; the author may be negative; the text is empty, ASCII or
// multi-byte; and the post goes to one to three of 40 users.
func FuzzTimelines(f *testing.F) {
	f.Add(uint16(2100), []byte{0x10, 0x83, 0x05, 0x21, 0xf0, 0x7f, 0x00, 0x92})
	f.Add(uint16(1025), []byte{0})
	f.Add(uint16(3100), []byte("multi-byte 火🔥 posts, ids and times going backwards"))
	f.Fuzz(func(t *testing.T, count uint16, prog []byte) {
		if len(prog) == 0 {
			return
		}
		const users = 40
		var tl Timelines
		defer tl.Reset()
		model := make([][]timelinePost, users)
		r := 0
		next := func() byte {
			b := prog[r%len(prog)]
			r++
			return b
		}
		id, tm, seq, entries := uint64(1)<<20, int64(1000), uint64(0), 0
		n := int(count % 4096)
		for i := 0; i < n; i++ {
			a, b, c, d := next(), next(), next(), next()
			id += uint64(int8(a))
			if b&0xc0 == 0xc0 {
				id ^= 1 << 40
			}
			tm += int64(int8(c)) * int64(1+b&0x0f)
			seq += 1 + uint64(b>>4&3)
			text := ""
			if d%5 != 0 {
				text = strings.Repeat([]string{"a", "é", "火", "🔥"}[a&3], int(d&0x1f))
			}
			p := core.Post{ID: id, Author: int32(int8(d)) * 1000, Time: tm, Text: text, FP: 1}
			u := int32(c) % users
			to := []int32{u, (u + 7) % users, (u + 14) % users}[:1+int(a)%3]
			slices.Sort(to)
			tl.Deliver(&p, seq, to)
			for _, u := range to {
				model[u] = append(model[u], timelinePost{seq, served(p)})
			}
			entries += len(to)
		}
		if posts, got, _ := tl.Size(); posts != uint64(n) || got != uint64(entries) {
			t.Fatalf("Size counts %d posts and %d entries, want %d and %d", posts, got, n, entries)
		}
		for u := int32(-1); u <= users; u++ {
			var want []timelinePost
			if u >= 0 && u < users {
				want = model[u]
			}
			for _, k := range []int{0, 1, len(want) / 2, len(want), len(want) + 1} {
				got, total := tl.appendTail(nil, u, k)
				if total != len(want) || !slices.Equal(got, want[len(want)-min(k, len(want)):]) {
					t.Fatalf("user %d, n=%d: %d posts of %d, want the newest %d of %d",
						u, k, len(got), total, min(k, len(want)), len(want))
				}
			}
		}
	})
}

// BenchmarkTimelinesDeliver appends posts with texts of about 110 bytes,
// delivered to 25 users each, spread over 5,000 users: the store's per-post
// cost on the ingest path. The store restarts every resetEvery posts
// (≈1,300 deliveries per user, a chain of about a dozen chunks) so a long
// run does not map gigabytes. mapped-B/post is the mapped bytes of every
// store the run filled over the posts it delivered.
func BenchmarkTimelinesDeliver(b *testing.B) {
	const users, perPost, resetEvery = 5000, 25, 1 << 18
	rng := rand.New(rand.NewSource(1))
	to := make([][]int32, 1024)
	posts := make([]core.Post, len(to))
	for i := range to {
		// A solver lists each user once.
		for _, u := range rng.Perm(users)[:perPost] {
			to[i] = append(to[i], int32(u))
		}
		posts[i] = core.Post{Author: int32(rng.Intn(users)), Text: strings.Repeat("w", 100+rng.Intn(21))}
	}
	var (
		tl     Timelines
		mapped uint64
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%resetEvery == 0 {
			_, _, bytes := tl.Size()
			mapped += bytes
			tl.Reset()
		}
		p := &posts[i%len(posts)]
		p.ID, p.Time = uint64(i+1), int64(i)*10
		tl.Deliver(p, uint64(i+1), to[i%len(to)])
	}
	b.StopTimer()
	_, _, bytes := tl.Size()
	b.ReportMetric(float64(mapped+bytes)/float64(b.N), "mapped-B/post")
	tl.Reset()
}
