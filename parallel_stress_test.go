package firehose

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelServiceEquivalenceAcrossWorkerCounts is the acceptance property
// of the parallel engine: for worker counts 1, 2 and NumCPU, every user's
// timeline (the ordered sequence of delivered post ids) is exactly the
// sequential MultiUserService's.
func TestParallelServiceEquivalenceAcrossWorkerCounts(t *testing.T) {
	graph, posts, subs := generateScenario(t, 180, 77)
	cfg := DefaultConfig()

	timelines := func(deliveries [][]UserID) map[UserID][]int {
		tl := make(map[UserID][]int)
		for i, users := range deliveries {
			for _, u := range users {
				tl[u] = append(tl[u], i)
			}
		}
		return tl
	}

	seq, err := NewService(graph, subs, ServiceOptions{Algorithm: UniBin, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]UserID, len(posts))
	for i, p := range posts {
		want[i] = seq.Offer(p)
	}
	wantTL := timelines(want)

	counts := []int{1, 2, runtime.NumCPU()}
	for _, workers := range counts {
		par, err := NewParallel(graph, subs, ParallelServiceOptions{Algorithm: UniBin, Config: cfg, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]Delivery, len(posts))
		for i, p := range posts {
			d, err := par.Offer(p)
			if err != nil {
				t.Fatal(err)
			}
			ds[i] = d
		}
		par.Close()
		got := make([][]UserID, len(posts))
		for i, d := range ds {
			users := append([]UserID(nil), d.Users()...)
			sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
			got[i] = users
		}
		gotTL := timelines(got)
		if len(gotTL) != len(wantTL) {
			t.Fatalf("workers=%d: %d users with timelines, want %d", workers, len(gotTL), len(wantTL))
		}
		for u, wantPosts := range wantTL {
			gotPosts := gotTL[u]
			if len(gotPosts) != len(wantPosts) {
				t.Fatalf("workers=%d user %d: timeline length %d, want %d",
					workers, u, len(gotPosts), len(wantPosts))
			}
			for i := range wantPosts {
				if gotPosts[i] != wantPosts[i] {
					t.Fatalf("workers=%d user %d: timeline diverges at %d: post %d vs %d",
						workers, u, i, gotPosts[i], wantPosts[i])
				}
			}
		}
		sSt, pSt := seq.Stats(), par.Stats()
		if sSt.Accepted != pSt.Accepted || sSt.Rejected != pSt.Rejected {
			t.Fatalf("workers=%d: accept/reject %d/%d, want %d/%d",
				workers, pSt.Accepted, pSt.Rejected, sSt.Accepted, sSt.Rejected)
		}
	}
}

// TestParallelServiceConcurrentStress hammers Offer, Stats and Close from
// many goroutines; run under -race it verifies the public wrapper inherits
// the engine's lifecycle guarantees.
func TestParallelServiceConcurrentStress(t *testing.T) {
	g := mustGraph(t, 0.7)
	subs := [][]AuthorID{{0, 1, 2}, {1, 2}, {0}}
	svc, err := NewParallel(g, subs, ParallelServiceOptions{Algorithm: UniBin, Config: DefaultConfig(), Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Workers() != 2 || svc.QueueDepth() != 64 {
		t.Fatalf("options not plumbed: workers=%d depth=%d", svc.Workers(), svc.QueueDepth())
	}

	base := time.Unix(50000, 0)
	var (
		wg       sync.WaitGroup
		accepted atomic.Uint64
	)
	for pr := 0; pr < 6; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				d, err := svc.Offer(Post{
					Author: AuthorID((pr + i) % 3),
					Time:   base,
					Text:   "stress post payload number",
				})
				switch {
				case err == nil:
					accepted.Add(1)
					_ = d
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("offer: %v", err)
					return
				}
			}
		}(pr)
	}
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for i := 0; i < 500; i++ {
			_ = svc.Stats()
		}
	}()
	wg.Wait()
	<-statsDone
	svc.Close()
	svc.Close() // idempotent

	// Counters count per-component decisions, and every offered post touches
	// at least one component here, so the processed total is bounded below by
	// the accepted offers and must be stable once Close has drained.
	st := svc.Stats()
	if st.Accepted+st.Rejected < accepted.Load() {
		t.Fatalf("stats processed %d decisions for %d accepted offers",
			st.Accepted+st.Rejected, accepted.Load())
	}
	if again := svc.Stats(); again != st {
		t.Fatalf("stats changed after Close: %+v vs %+v", again, st)
	}
	if _, err := svc.Offer(Post{Author: 0, Time: base, Text: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("offer after close: got %v, want ErrClosed", err)
	}
}

func TestParallelServiceOptsDefaults(t *testing.T) {
	g := mustGraph(t, 0.7)
	svc, err := NewParallel(g, [][]AuthorID{{0}}, ParallelServiceOptions{Algorithm: UniBin, Config: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Workers() != runtime.NumCPU() {
		t.Fatalf("default workers = %d, want NumCPU (%d)", svc.Workers(), runtime.NumCPU())
	}
	if _, err := NewParallel(g, [][]AuthorID{{0}}, ParallelServiceOptions{Algorithm: UniBin, Config: DefaultConfig(), Workers: 1, QueueDepth: -5}); err == nil {
		t.Fatal("negative queue depth accepted")
	}
}
