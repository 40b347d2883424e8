package stream

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
)

// TestParallelBatchMatchesSequential is the batch-path equivalence property:
// feeding the stream through OfferBatch in random-size chunks produces
// exactly the per-post deliveries (and counter totals) of the sequential
// solver offering posts one by one, at 1 and 4 workers and on the inline
// engine.
func TestParallelBatchMatchesSequential(t *testing.T) {
	g, subs, posts := parallelScenario(t, 31, 250)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}

	seq, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int32, len(posts))
	for i, p := range posts {
		want[i] = slices.Clone(seq.Offer(p))
	}

	for _, workers := range []int{1, 4, inlineShape} {
		par := newShape(t, core.AlgUniBin, g, subs, th, workers)
		rng := rand.New(rand.NewSource(int64(workers)))
		var tickets []*BatchTicket
		wantSeq := uint64(1)
		for off := 0; off < len(posts); {
			n := 1 + rng.Intn(16)
			if off+n > len(posts) {
				n = len(posts) - off
			}
			bt, err := par.OfferBatch(posts[off : off+n])
			if err != nil {
				t.Fatal(err)
			}
			if bt.SeqBase() != wantSeq {
				t.Fatalf("workers=%d: batch at %d has SeqBase %d, want %d",
					workers, off, bt.SeqBase(), wantSeq)
			}
			if bt.Len() != n {
				t.Fatalf("workers=%d: batch Len %d, want %d", workers, bt.Len(), n)
			}
			wantSeq += uint64(n)
			tickets = append(tickets, bt)
			off += n
		}
		par.Close()

		i := 0
		for _, bt := range tickets {
			for _, got := range bt.Users() {
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				if !slices.Equal(got, want[i]) {
					t.Fatalf("workers=%d post %d: batch delivered %v, sequential %v",
						workers, posts[i].ID, got, want[i])
				}
				i++
			}
		}

		sc, pc := seq.Counters(), par.Counters()
		if pc.Accepted != sc.Accepted || pc.Rejected != sc.Rejected ||
			pc.Comparisons != sc.Comparisons || pc.Insertions != sc.Insertions {
			t.Fatalf("workers=%d: counters differ: parallel %d/%d/%d/%d vs sequential %d/%d/%d/%d",
				workers,
				pc.Accepted, pc.Rejected, pc.Comparisons, pc.Insertions,
				sc.Accepted, sc.Rejected, sc.Comparisons, sc.Insertions)
		}
	}
}

// TestParallelBatchInterleavesWithOffer checks that single and batch
// ingestion share one sequence space and one stream order.
func TestParallelBatchInterleavesWithOffer(t *testing.T) {
	g := authorsim.NewGraph(4, []authorsim.SimPair{{A: 0, B: 1}, {A: 2, B: 3}}, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, [][]int32{{0, 1, 2, 3}}, th, 2)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := e.Offer(&core.Post{ID: 1, Author: 0, Time: 1, FP: 0})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := e.OfferBatch([]*core.Post{
		{ID: 2, Author: 1, Time: 2, FP: 1},  // covered by post 1
		{ID: 3, Author: 2, Time: 3, FP: 0},  // other component: kept
		{ID: 4, Author: 99, Time: 4, FP: 0}, // unknown author: no one, but keeps its seq
	})
	if err != nil {
		t.Fatal(err)
	}
	t5, err := e.Offer(&core.Post{ID: 5, Author: 3, Time: 5, FP: 1}) // covered by post 3's component? no: covered by... author 3 ~ author 2, FP 1 far from FP 0: kept
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	if t1.Seq() != 1 || bt.SeqBase() != 2 || t5.Seq() != 5 {
		t.Fatalf("sequence space not shared: %d, %d, %d", t1.Seq(), bt.SeqBase(), t5.Seq())
	}
	users := bt.Users()
	if len(users[0]) != 0 {
		t.Fatalf("near-duplicate in batch delivered to %v", users[0])
	}
	if len(users[1]) != 1 {
		t.Fatalf("fresh batch post delivered to %v", users[1])
	}
	if len(users[2]) != 0 {
		t.Fatalf("unknown author delivered to %v", users[2])
	}
}

// TestParallelUnknownAuthorKeepsSeq checks that a single Offer of a post
// whose author is outside the graph (or negative) consumes its sequence
// number, as the same post does inside a batch: the sequence space stays
// dense and shared with OfferBatch.
func TestParallelUnknownAuthorKeepsSeq(t *testing.T) {
	g := authorsim.NewGraph(4, []authorsim.SimPair{{A: 0, B: 1}, {A: 2, B: 3}}, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	for _, workers := range []int{2, inlineShape} {
		e := newShape(t, core.AlgUniBin, g, [][]int32{{0, 1, 2, 3}}, th, workers)
		for i, author := range []int32{0, 9999, -1, 1} {
			tk, err := e.Offer(&core.Post{ID: uint64(i + 1), Author: author, Time: int64(i + 1), FP: 0xFF << (8 * i)})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tk.Seq(), uint64(i+1); got != want {
				t.Fatalf("workers=%d author %d: seq %d, want %d", workers, author, got, want)
			}
			if users := tk.Users(); (author == 0 || author == 1) != (len(users) == 1) {
				t.Fatalf("workers=%d: author %d delivered to %v", workers, author, users)
			}
		}
		bt, err := e.OfferBatch([]*core.Post{{ID: 5, Author: 2, Time: 5, FP: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if bt.SeqBase() != 5 {
			t.Fatalf("workers=%d: batch after four single offers at SeqBase %d, want 5", workers, bt.SeqBase())
		}
		e.Close()
	}
}

// TestParallelBatchAfterClose checks the ErrClosed path.
func TestParallelBatchAfterClose(t *testing.T) {
	g := authorsim.NewGraph(1, nil, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	for _, workers := range []int{1, inlineShape} {
		e := newShape(t, core.AlgUniBin, g, [][]int32{{0}}, th, workers)
		e.Close()
		if _, err := e.OfferBatch([]*core.Post{{ID: 1, Author: 0, Time: 1}}); !errors.Is(err, ErrClosed) {
			t.Fatalf("workers=%d: batch after close: got %v, want ErrClosed", workers, err)
		}
	}
}

// TestMultiEngineBatchMatchesOffer checks the synchronous view's batch path
// against its one-by-one path on a fresh identical inline engine.
func TestMultiEngineBatchMatchesOffer(t *testing.T) {
	g, subs, posts := parallelScenario(t, 33, 120)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}

	newEngine := func() *MultiEngine {
		md, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		return NewMultiEngine(md)
	}

	one := newEngine()
	want := make([][]int32, len(posts))
	for i, p := range posts {
		users, err := one.Offer(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = users
	}

	batched := newEngine()
	got, err := batched.OfferBatch(posts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range posts {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("post %d: batch delivered %v, single %v", posts[i].ID, got[i], want[i])
		}
	}

	oc, bc := one.Counters(), batched.Counters()
	if oc.Accepted != bc.Accepted || oc.Rejected != bc.Rejected {
		t.Fatalf("bookkeeping differs: single %d/%d vs batch %d/%d",
			oc.Accepted, oc.Rejected, bc.Accepted, bc.Rejected)
	}
	if oc.Decisions.Count != bc.Decisions.Count {
		t.Fatalf("latency observations differ: %d vs %d",
			oc.Decisions.Count, bc.Decisions.Count)
	}
}
