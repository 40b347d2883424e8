package firehose

import (
	"errors"
	"slices"
	"sort"
	"testing"
)

// TestParallelServiceBatchMatchesSequential is the public batch-path
// equivalence property: chunking the stream through OfferBatch yields exactly
// the sequential MultiUserService's per-post deliveries.
func TestParallelServiceBatchMatchesSequential(t *testing.T) {
	graph, posts, subs := generateScenario(t, 150, 55)
	cfg := DefaultConfig()

	seq, err := NewService(graph, subs, ServiceOptions{Algorithm: UniBin, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]UserID, len(posts))
	for i, p := range posts {
		want[i] = seq.Offer(p)
	}

	par, err := NewParallel(graph, subs, ParallelServiceOptions{Algorithm: UniBin, Config: cfg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var deliveries []BatchDelivery
	for off := 0; off < len(posts); off += 32 {
		end := min(off+32, len(posts))
		d, err := par.OfferBatch(posts[off:end])
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != end-off {
			t.Fatalf("batch Len %d, want %d", d.Len(), end-off)
		}
		deliveries = append(deliveries, d)
	}
	par.Close()

	i := 0
	for _, d := range deliveries {
		if got, wantSeq := d.SeqBase(), uint64(i+1); got != wantSeq {
			t.Fatalf("batch at post %d: SeqBase %d, want %d", i, got, wantSeq)
		}
		for _, got := range d.Users() {
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if !slices.Equal(got, want[i]) {
				t.Fatalf("post %d: batch delivered %v, sequential %v", i, got, want[i])
			}
			i++
		}
	}
	if i != len(posts) {
		t.Fatalf("deliveries cover %d posts, want %d", i, len(posts))
	}

	sSt, pSt := seq.Stats(), par.Stats()
	if sSt.Accepted != pSt.Accepted || sSt.Rejected != pSt.Rejected {
		t.Fatalf("stats differ: %+v vs %+v", sSt, pSt)
	}
}

func TestParallelServiceBatchAfterClose(t *testing.T) {
	graph, posts, subs := generateScenario(t, 40, 56)
	par, err := NewParallel(graph, subs, ParallelServiceOptions{Algorithm: UniBin, Config: DefaultConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	par.Close()
	if _, err := par.OfferBatch(posts[:3]); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: got %v, want ErrClosed", err)
	}
}
