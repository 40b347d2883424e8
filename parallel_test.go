package firehose

import (
	"testing"
	"time"
)

func TestParallelServiceMatchesSequential(t *testing.T) {
	graph, posts, subs := generateScenario(t, 220, 91)
	cfg := DefaultConfig()

	seq, err := NewService(graph, subs, ServiceOptions{Algorithm: UniBin, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewParallel(graph, subs, ParallelServiceOptions{Algorithm: UniBin, Config: cfg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Workers() != 4 {
		t.Fatalf("Workers = %d", par.Workers())
	}

	type decided struct {
		want []UserID
		d    Delivery
	}
	var all []decided
	for _, p := range posts {
		want := seq.Offer(p)
		d, err := par.Offer(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, decided{want: want, d: d})
	}
	par.Close()

	for i, dec := range all {
		got := dec.d.Users()
		if len(got) != len(dec.want) {
			t.Fatalf("post %d: %d users vs %d", i, len(got), len(dec.want))
		}
		inGot := map[UserID]bool{}
		for _, u := range got {
			inGot[u] = true
		}
		for _, u := range dec.want {
			if !inGot[u] {
				t.Fatalf("post %d: user %d missing from parallel delivery", i, u)
			}
		}
	}

	sSt, pSt := seq.Stats(), par.Stats()
	if sSt.Accepted != pSt.Accepted || sSt.Rejected != pSt.Rejected {
		t.Fatalf("stats differ: %+v vs %+v", sSt, pSt)
	}
	// The service serves no timelines, so its workers keep no history: a
	// long-running embedder's memory stays bounded by the decision window.
	if posts, entries, bytes := par.inner.TimelineSize(); posts != 0 || entries != 0 || bytes != 0 {
		t.Fatalf("ParallelService retains %d posts, %d timeline entries and %d bytes", posts, entries, bytes)
	}
}

func TestParallelServiceValidation(t *testing.T) {
	g := mustGraph(t, 0.7)
	cfg := DefaultConfig()
	if _, err := NewParallel(nil, nil, ParallelServiceOptions{Algorithm: UniBin, Config: cfg, Workers: 2}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewParallel(g, [][]AuthorID{{9}}, ParallelServiceOptions{Algorithm: UniBin, Config: cfg, Workers: 2}); err == nil {
		t.Fatal("bad subscription accepted")
	}
	if _, err := NewParallel(g, [][]AuthorID{{0}}, ParallelServiceOptions{Algorithm: UniBin, Config: cfg, Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestParallelServiceSmallFlow(t *testing.T) {
	g := mustGraph(t, 0.7)
	svc, err := NewParallel(g, [][]AuthorID{{0, 1}, {2}}, ParallelServiceOptions{Algorithm: UniBin, Config: DefaultConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(9000, 0)
	d1, _ := svc.Offer(Post{ID: 1, Author: 0, Time: base, Text: "storm hits coastal towns overnight http://t.co/a"})
	d2, _ := svc.Offer(Post{ID: 2, Author: 1, Time: base.Add(time.Minute), Text: "storm hits coastal towns overnight http://t.co/b"})
	svc.Close()
	if got := d1.Users(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("d1 users %v", got)
	}
	if got := d2.Users(); len(got) != 0 {
		t.Fatalf("duplicate delivered to %v", got)
	}
	if _, err := svc.Offer(Post{ID: 3, Author: 0, Time: base.Add(2 * time.Minute), Text: "x y"}); err == nil {
		t.Fatal("offer after close accepted")
	}
}
