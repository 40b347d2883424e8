package stream

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/simhash"
)

// timelineEngine is what the equivalence test drives on both engines: single
// and batch ingest that return once the decision is made, and the per-user
// history read.
type timelineEngine struct {
	offer    func(p *core.Post)
	batch    func(ps []*core.Post)
	timeline func(u int32) []*core.Post
	snap     core.StateSnapshotter
}

// TestParallelTimelinesMatchSequential: the parallel engine's workers keep
// the timelines, and merging them by sequence number must reproduce the
// sequential MultiEngine's timelines exactly — every user, same posts, same
// order — at 1, 2 and 4 workers, over a stream mixing Offer and OfferBatch
// and containing unknown and negative authors, and again after an in-place
// RestoreState (which empties them) and a refill.
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

	sequential := func() timelineEngine {
		md, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMultiEngine(md)
		return timelineEngine{
			offer: func(p *core.Post) {
				if _, err := m.Offer(p); err != nil {
					t.Fatal(err)
				}
			},
			batch: func(ps []*core.Post) {
				if _, err := m.OfferBatch(ps); err != nil {
					t.Fatal(err)
				}
			},
			timeline: m.Timeline,
			snap:     m,
		}
	}
	parallel := func(workers int) (timelineEngine, *ParallelMultiEngine) {
		e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, workers)
		if err != nil {
			t.Fatal(err)
		}
		return timelineEngine{
			offer: func(p *core.Post) {
				tk, err := e.Offer(p)
				if err != nil {
					t.Fatal(err)
				}
				tk.Users()
			},
			batch: func(ps []*core.Post) {
				bt, err := e.OfferBatch(ps)
				if err != nil {
					t.Fatal(err)
				}
				bt.Users()
			},
			timeline: e.Timeline,
			snap:     e,
		}, e
	}
	// feed offers posts in random-size runs, alternating single and batch
	// ingest; the run boundaries depend only on the seed.
	feed := func(eng timelineEngine, posts []*core.Post, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for off, run := 0, 0; off < len(posts); run++ {
			n := min(1+rng.Intn(20), len(posts)-off)
			if run%2 == 0 {
				for _, p := range posts[off : off+n] {
					eng.offer(p)
				}
			} else {
				eng.batch(posts[off : off+n])
			}
			off += n
		}
	}
	compare := func(when string, workers int, want, got timelineEngine) int {
		t.Helper()
		total := 0
		for u := int32(-1); u <= int32(len(subs)); u++ {
			a, b := want.timeline(u), got.timeline(u)
			if !slices.Equal(a, b) {
				t.Fatalf("workers=%d %s: user %d: sequential has %d posts, parallel %d (or the order differs)",
					workers, when, u, len(a), len(b))
			}
			total += len(a)
		}
		return total
	}

	cut, cut2 := len(posts)/2, 3*len(posts)/4
	for _, workers := range []int{1, 2, 4} {
		seq := sequential()
		par, pe := parallel(workers)
		feed(seq, posts[:cut], 1)
		feed(par, posts[:cut], 1)
		if n := compare("first half", workers, seq, par); n < 500 {
			t.Fatalf("only %d timeline entries after the first half; the stream should fill several chunks", n)
		}
		seqSnap, parSnap := snapEngine(t, seq.snap), snapEngine(t, par.snap)

		// Run on past the snapshot, then roll both engines back in place.
		feed(seq, posts[cut:cut2], 2)
		feed(par, posts[cut:cut2], 2)
		compare("before restore", workers, seq, par)
		if err := restoreEngine(seq.snap, seqSnap); err != nil {
			t.Fatal(err)
		}
		if err := restoreEngine(par.snap, parSnap); err != nil {
			t.Fatal(err)
		}
		if n := compare("after restore", workers, seq, par); n != 0 {
			t.Fatalf("workers=%d: %d timeline entries survived RestoreState", workers, n)
		}
		if np, ne := pe.TimelineSize(); np != 0 || ne != 0 {
			t.Fatalf("workers=%d: TimelineSize after restore = %d, %d", workers, np, ne)
		}

		// The refill replays the suffix from the snapshot's cut with other
		// run boundaries.
		feed(seq, posts[cut:], 3)
		feed(par, posts[cut:], 3)
		if n := compare("after refill", workers, seq, par); n == 0 {
			t.Fatalf("workers=%d: the refill delivered nothing", workers)
		}
		pe.Close()
		compare("after Close", workers, seq, par)
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
					_, _ = e.TimelineSize()
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
	if posts, entries := e.TimelineSize(); posts != 0 || entries != 0 {
		t.Fatalf("discarding engine reports %d posts, %d entries", posts, entries)
	}
}
