package stream

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/simhash"
)

// TestParallelTimelinesMatchSequential: every worker keeps the timelines of
// the posts it decides, and merging them by sequence number must reproduce
// the sequential solver's deliveries appended in stream order — every user,
// same posts (id, author, time, text), same order — at 1, 2 and 4 workers and
// on the inline engine, over a stream mixing Offer and OfferBatch and
// containing unknown and negative authors, and again after an in-place
// RestoreState (which empties them) and a refill. TimelineTail must return
// the same history's newest n for n of 0, 1, its length and past it.
func TestParallelTimelinesMatchSequential(t *testing.T) {
	g, subs, base := parallelScenario(t, 41, 160)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	posts := make([]*core.Post, len(base))
	for i, p := range base {
		q := *p
		switch i % 23 {
		case 7:
			q.Author = int32(g.NumAuthors()) + 5
		case 15:
			q.Author = -1
		}
		posts[i] = &q
	}
	seq, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make([][]int32, len(posts))
	for i, p := range posts {
		delivered[i] = slices.Clone(seq.Offer(p))
	}
	// want is the reference history of posts[lo:hi]: what a read serves of
	// each post, appended to the timeline of every user the sequential solver
	// delivered it to.
	want := func(lo, hi int) map[int32][]core.Post {
		tl := make(map[int32][]core.Post)
		for i := lo; i < hi; i++ {
			for _, u := range delivered[i] {
				tl[u] = append(tl[u], core.Post{ID: posts[i].ID, Author: posts[i].Author, Time: posts[i].Time, Text: posts[i].Text})
			}
		}
		return tl
	}

	// feed offers posts in random-size runs, alternating single and batch
	// ingest; the run boundaries depend only on the seed.
	feed := func(e *ParallelMultiEngine, posts []*core.Post, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for off, run := 0, 0; off < len(posts); run++ {
			n := min(1+rng.Intn(20), len(posts)-off)
			if run%2 == 0 {
				for _, p := range posts[off : off+n] {
					tk, err := e.Offer(p)
					if err != nil {
						t.Fatal(err)
					}
					tk.Users()
				}
			} else {
				bt, err := e.OfferBatch(posts[off : off+n])
				if err != nil {
					t.Fatal(err)
				}
				bt.Users()
			}
			off += n
		}
	}
	compare := func(when string, workers int, e *ParallelMultiEngine, lo, hi int) int {
		t.Helper()
		ref := want(lo, hi)
		total := 0
		for u := int32(-1); u <= int32(len(subs)); u++ {
			a := ref[u]
			if b := e.Timeline(u); !slices.EqualFunc(a, b, func(x core.Post, y *core.Post) bool { return x == *y }) {
				t.Fatalf("workers=%d %s: user %d: reference has %d posts, engine %d (or they differ)",
					workers, when, u, len(a), len(b))
			}
			for _, n := range []int{0, 1, len(a), len(a) + 1} {
				tail, k, err := e.TimelineTail(u, n)
				if err != nil || k != len(a) || !slices.EqualFunc(a[len(a)-min(n, len(a)):], tail, func(x core.Post, y *core.Post) bool { return x == *y }) {
					t.Fatalf("workers=%d %s: user %d: TimelineTail(%d) = %d posts of %d, want the newest of %d",
						workers, when, u, n, len(tail), k, len(a))
				}
			}
			total += len(a)
		}
		return total
	}

	cut, cut2 := len(posts)/2, 3*len(posts)/4
	for _, workers := range []int{1, 2, 4, inlineShape} {
		e := newShape(t, core.AlgUniBin, g, subs, th, workers)
		feed(e, posts[:cut], 1)
		if n := compare("first half", workers, e, 0, cut); n < 500 {
			t.Fatalf("only %d timeline entries after the first half; the stream should fill several chunks", n)
		}
		snap := snapEngine(t, e)

		// Run on past the snapshot, then roll the engine back in place.
		feed(e, posts[cut:cut2], 2)
		compare("before restore", workers, e, 0, cut2)
		if err := restoreEngine(e, snap); err != nil {
			t.Fatal(err)
		}
		compare("after restore", workers, e, 0, 0)
		if np, ne, nb := e.TimelineSize(); np != 0 || ne != 0 || nb != 0 {
			t.Fatalf("workers=%d: TimelineSize after restore = %d, %d, %d", workers, np, ne, nb)
		}

		// The refill replays the suffix from the snapshot's cut with other
		// run boundaries.
		feed(e, posts[cut:], 3)
		if n := compare("after refill", workers, e, cut, len(posts)); n == 0 {
			t.Fatalf("workers=%d: the refill delivered nothing", workers)
		}
		e.Close()
		compare("after Close", workers, e, cut, len(posts))
	}
}

// TestParallelTimelinesAscendingUnderConcurrentOffers: with eight producers
// offering single posts concurrently, the workers append in decision order,
// so every user's merged timeline must be ascending in Ticket.Seq and hold
// exactly the posts whose tickets named that user. Concurrent readers exercise
// the worker locks under -race.
func TestParallelTimelinesAscendingUnderConcurrentOffers(t *testing.T) {
	g, subs, th := raceScenario(t)
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 4)
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 8, 300
	seqOf := make([]uint64, producers*perProducer+1) // by post id
	delivered := make([][]int32, producers*perProducer+1)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = e.Timeline(int32(r))
					_, _, _ = e.TimelineTail(int32(r), 3)
					_, _, _ = e.TimelineSize()
				}
			}
		}(r)
	}
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := uint64(pr*perProducer + i + 1)
				// One shared timestamp makes any serialization a valid time order.
				tk, err := e.Offer(&core.Post{
					ID: id, Author: int32((pr + i) % 16), Time: 1,
					FP: simhash.Fingerprint(id * 0x9e3779b97f4a7c15),
				})
				if err != nil {
					t.Errorf("offer: %v", err)
					return
				}
				seqOf[id] = tk.Seq()
				delivered[id] = tk.Users()
			}
		}(pr)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	e.Close()

	want := make(map[int32][]uint64)
	for id, users := range delivered {
		for _, u := range users {
			want[u] = append(want[u], uint64(id))
		}
	}
	for u := range subs {
		tl := e.Timeline(int32(u))
		if len(tl) != len(want[int32(u)]) {
			t.Fatalf("user %d: timeline has %d posts, tickets delivered %d", u, len(tl), len(want[int32(u)]))
		}
		for i := 1; i < len(tl); i++ {
			if seqOf[tl[i].ID] <= seqOf[tl[i-1].ID] {
				t.Fatalf("user %d: post %d (seq %d) follows post %d (seq %d)",
					u, tl[i].ID, seqOf[tl[i].ID], tl[i-1].ID, seqOf[tl[i-1].ID])
			}
		}
		got := make([]uint64, len(tl))
		for i, p := range tl {
			got[i] = p.ID
		}
		slices.Sort(got)
		slices.Sort(want[int32(u)])
		if !slices.Equal(got, want[int32(u)]) {
			t.Fatalf("user %d: timeline holds other posts than its tickets delivered", u)
		}
	}
}

// TestParallelDiscardTimelines: an engine told to keep no history still
// decides and delivers, but retains nothing.
func TestParallelDiscardTimelines(t *testing.T) {
	g := authorsim.NewGraph(2, nil, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, [][]int32{{0, 1}}, th, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tk, err := e.Offer(&core.Post{ID: 1, Author: 0, Time: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk.Users()
	e.DiscardTimelines()
	tk, err = e.Offer(&core.Post{ID: 2, Author: 1, Time: 2})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := e.OfferBatch([]*core.Post{{ID: 3, Author: 0, Time: 3, FP: 0xFFFF}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tk.Users()) != 1 || len(bt.Users()[0]) != 1 {
		t.Fatalf("deliveries stopped: %v, %v", tk.Users(), bt.Users())
	}
	if tl := e.Timeline(0); len(tl) != 0 {
		t.Fatalf("discarding engine kept %d posts", len(tl))
	}
	if posts, entries, bytes := e.TimelineSize(); posts != 0 || entries != 0 || bytes != 0 {
		t.Fatalf("discarding engine reports %d posts, %d entries, %d bytes", posts, entries, bytes)
	}
}

// settledMappedBytes collects until every dropped store's finalizer has
// unmapped its pages — the count of mapped arena bytes holds still over three
// collections — and returns that count: the baseline of the lifecycle tests.
func settledMappedBytes(t *testing.T) int64 {
	t.Helper()
	last, still := mappedBytes.Load(), 0
	for i := 0; i < 200 && still < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer goroutine runs meanwhile
		if n := mappedBytes.Load(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	if still < 3 {
		t.Fatalf("the count of mapped arena bytes never settled (last %d)", last)
	}
	return last
}

// offerAll offers posts one by one and joins every decision.
func offerAll(t *testing.T, e *ParallelMultiEngine, posts []*core.Post) {
	t.Helper()
	for _, p := range posts {
		tk, err := e.Offer(p)
		if err != nil {
			t.Fatal(err)
		}
		tk.Users()
	}
}

// TestTimelinesArenaReleased: Reset, DiscardTimelines and RestoreState unmap
// every page the stores mapped, so the process's count of mapped arena bytes
// returns to its baseline at once, on every engine shape; before that, the
// count has grown by exactly what TimelineSize reports.
func TestTimelinesArenaReleased(t *testing.T) {
	g, subs, posts := parallelScenario(t, 41, 160)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	base := settledMappedBytes(t)

	var tl Timelines
	for i, p := range posts[:500] {
		tl.Deliver(p, uint64(i+1), []int32{int32(i % 7)})
	}
	if _, _, bytes := tl.Size(); mappedBytes.Load()-base != int64(bytes) || bytes == 0 {
		t.Fatalf("a store reporting %d bytes mapped %d", bytes, mappedBytes.Load()-base)
	}
	tl.Reset()
	if n := mappedBytes.Load(); n != base {
		t.Fatalf("Reset left %d mapped bytes over the baseline", n-base)
	}

	drops := []struct {
		name string
		drop func(e *ParallelMultiEngine, snap []byte) error
	}{
		{"DiscardTimelines", func(e *ParallelMultiEngine, _ []byte) error { e.DiscardTimelines(); return nil }},
		{"RestoreState", func(e *ParallelMultiEngine, snap []byte) error { return restoreEngine(e, snap) }},
	}
	for _, d := range drops {
		for _, workers := range []int{1, 2, inlineShape} {
			e := newShape(t, core.AlgUniBin, g, subs, th, workers)
			snap := snapEngine(t, e)
			offerAll(t, e, posts)
			if _, _, bytes := e.TimelineSize(); mappedBytes.Load()-base != int64(bytes) || bytes == 0 {
				t.Fatalf("%s, workers=%d: stores reporting %d bytes mapped %d",
					d.name, workers, bytes, mappedBytes.Load()-base)
			}
			if err := d.drop(e, snap); err != nil {
				t.Fatal(err)
			}
			if n := mappedBytes.Load(); n != base {
				t.Fatalf("%s, workers=%d: %d mapped bytes over the baseline remain", d.name, workers, n-base)
			}
			e.Close()
		}
	}
}

// TestTimelinesUnmappedWhenEngineDropped: an engine with deliveries that is
// dropped without Close or Reset leaves its pages to its stores' arena
// finalizers, which unmap them within a bounded number of collections.
func TestTimelinesUnmappedWhenEngineDropped(t *testing.T) {
	g, subs, posts := parallelScenario(t, 41, 160)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	base := settledMappedBytes(t)
	func() {
		e := newShape(t, core.AlgUniBin, g, subs, th, inlineShape)
		offerAll(t, e, posts)
		if _, _, bytes := e.TimelineSize(); bytes == 0 {
			t.Fatal("the engine mapped nothing; the test wants deliveries")
		}
	}()
	for gc := 1; gc <= 20; gc++ {
		runtime.GC()
		for wait := 0; wait < 50 && mappedBytes.Load() != base; wait++ {
			time.Sleep(time.Millisecond)
		}
		if mappedBytes.Load() == base {
			t.Logf("unmapped after %d collections", gc)
			return
		}
	}
	t.Fatalf("20 collections after the engine was dropped, %d mapped bytes over the baseline remain",
		mappedBytes.Load()-base)
}

// TestTimelineTailOutlivesReset: the posts a read returns are copies, so they
// keep their texts after the store that served them unmapped its pages.
func TestTimelineTailOutlivesReset(t *testing.T) {
	g, subs, posts := parallelScenario(t, 41, 160)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	for _, workers := range []int{2, inlineShape} {
		e := newShape(t, core.AlgUniBin, g, subs, th, workers)
		offerAll(t, e, posts)
		var reads [][]*core.Post
		var want [][]string
		for u := range subs {
			tail, _, _ := e.TimelineTail(int32(u), 5)
			texts := make([]string, len(tail))
			for i, p := range tail {
				texts[i] = strings.Clone(p.Text)
			}
			reads, want = append(reads, tail), append(want, texts)
		}
		e.DiscardTimelines()
		// Fresh pages after the unmap may land where the old ones were.
		e2 := newShape(t, core.AlgUniBin, g, subs, th, workers)
		offerAll(t, e2, posts[len(posts)/2:])
		nonEmpty := 0
		for u, tail := range reads {
			for i, p := range tail {
				if p.Text != want[u][i] {
					t.Fatalf("workers=%d: user %d's post %d reads %q after the reset, was %q",
						workers, u, i, p.Text, want[u][i])
				}
				if p.Text != "" {
					nonEmpty++
				}
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("workers=%d: the reads held no text; the test wants some", workers)
		}
		e.Close()
		e2.Close()
	}
}
