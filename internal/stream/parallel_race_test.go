package stream

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/simhash"
)

// This file stress-tests the ParallelMultiEngine lifecycle under the race
// detector: Offer, Close and Counters hammered from many goroutines at once.
// On the pre-hardening engine (bare `closed` bool, unguarded counter reads)
// these tests fail under `go test -race`.

// raceScenario builds a small multi-component graph whose posts spread over
// every worker.
func raceScenario(t *testing.T) (*authorsim.Graph, [][]int32, core.Thresholds) {
	t.Helper()
	// 8 components of 2 similar authors each.
	var pairs []authorsim.SimPair
	for a := int32(0); a < 16; a += 2 {
		pairs = append(pairs, authorsim.SimPair{A: a, B: a + 1})
	}
	g := authorsim.NewGraph(16, pairs, 0.7)
	subs := make([][]int32, 4)
	for u := range subs {
		for a := int32(0); a < 16; a++ {
			subs[u] = append(subs[u], a)
		}
	}
	return g, subs, core.Thresholds{LambdaC: 8, LambdaT: 1000, LambdaA: 0.7}
}

func TestParallelConcurrentOfferCloseCounters(t *testing.T) {
	g, subs, th := raceScenario(t)
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 4)
	if err != nil {
		t.Fatal(err)
	}

	const producers = 8
	const perProducer = 400
	var (
		wg       sync.WaitGroup
		accepted atomic.Uint64
		rejected atomic.Uint64
		tickets  = make([][]*Ticket, producers)
	)
	// All posts share one timestamp so any serialization the ingest boundary
	// picks is a valid time order.
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				p := &core.Post{
					ID:     uint64(pr*perProducer + i + 1),
					Author: int32((pr + i) % 16),
					Time:   1,
					FP:     simhash.Fingerprint(uint64(pr*perProducer+i) * 0x9e3779b97f4a7c15),
				}
				tk, err := e.Offer(p)
				switch {
				case err == nil:
					accepted.Add(1)
					tickets[pr] = append(tickets[pr], tk)
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
				default:
					t.Errorf("unexpected Offer error: %v", err)
					return
				}
			}
		}(pr)
	}
	// Concurrent Counters snapshots while workers decide.
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = e.Counters()
				}
			}
		}()
	}
	// A racing Close: some producers may lose the race and see ErrClosed.
	var closeWG sync.WaitGroup
	for c := 0; c < 2; c++ {
		closeWG.Add(1)
		go func() {
			defer closeWG.Done()
			e.Close()
		}()
	}
	wg.Wait()
	e.Close()
	closeWG.Wait()
	close(stop)
	snapWG.Wait()

	// Every accepted offer's ticket must be resolved after Close.
	var resolved uint64
	seen := make(map[uint64]bool)
	for _, ts := range tickets {
		for _, tk := range ts {
			select {
			case <-tk.done:
			default:
				t.Fatal("ticket unresolved after Close")
			}
			if seen[tk.Seq()] {
				t.Fatalf("duplicate sequence %d", tk.Seq())
			}
			seen[tk.Seq()] = true
			resolved++
		}
	}
	if resolved != accepted.Load() {
		t.Fatalf("resolved %d tickets, accepted %d offers", resolved, accepted.Load())
	}
	if accepted.Load()+rejected.Load() != producers*perProducer {
		t.Fatalf("offers unaccounted: %d + %d != %d",
			accepted.Load(), rejected.Load(), producers*perProducer)
	}
	// The final counter totals must equal the accepted offer count exactly.
	c := e.Counters()
	if c.Processed() != accepted.Load() {
		t.Fatalf("counters processed %d posts, engine accepted %d offers",
			c.Processed(), accepted.Load())
	}
	// Post-Close Offer fails with the typed error.
	if _, err := e.Offer(&core.Post{ID: 1, Author: 0, Time: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Offer after Close: got %v, want ErrClosed", err)
	}
}

func TestParallelSequenceIsMonotonePerWorker(t *testing.T) {
	g, subs, th := raceScenario(t)
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 3)
	if err != nil {
		t.Fatal(err)
	}
	const producers = 6
	var wg sync.WaitGroup
	seqs := make([][]uint64, producers)
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tk, err := e.Offer(&core.Post{
					ID: uint64(pr*200 + i + 1), Author: int32(i % 16), Time: 1,
				})
				if err != nil {
					t.Errorf("offer: %v", err)
					return
				}
				seqs[pr] = append(seqs[pr], tk.Seq())
			}
		}(pr)
	}
	wg.Wait()
	e.Close()
	// Each producer observes strictly increasing sequences (its own offers
	// are ordered), and across producers sequences are dense 1..N.
	all := make(map[uint64]bool)
	for pr, s := range seqs {
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("producer %d: sequence not increasing: %d after %d", pr, s[i], s[i-1])
			}
		}
		for _, v := range s {
			if all[v] {
				t.Fatalf("sequence %d assigned twice", v)
			}
			all[v] = true
		}
	}
	for want := uint64(1); want <= uint64(len(all)); want++ {
		if !all[want] {
			t.Fatalf("sequence %d skipped", want)
		}
	}
}

// gatedSolver holds every decision until gate is closed.
type gatedSolver struct {
	core.MultiDiversifier
	gate chan struct{}
}

func (g gatedSolver) Offer(p *core.Post) []int32 {
	<-g.gate
	return g.MultiDiversifier.Offer(p)
}

// TestParallelBlockingBackpressure: with the worker held in a decision, the
// queue takes exactly DefaultQueueDepth more posts, and the next Offer blocks
// until the worker drains instead of failing or dropping the post.
func TestParallelBlockingBackpressure(t *testing.T) {
	g := authorsim.NewGraph(1, nil, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	e, err := NewParallelMultiEngineOpts(core.AlgUniBin, g, [][]int32{{0}}, th, 1, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if err := e.Swap(func(md core.MultiDiversifier) core.MultiDiversifier { return gatedSolver{md, gate} }); err != nil {
		t.Fatal(err)
	}
	w := e.workers[0]
	first, err := e.Offer(&core.Post{ID: 1, Author: 0, Time: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The worker takes the first post off the queue and waits at the gate.
	for len(w.ch) != 0 {
		runtime.Gosched()
	}
	for i := range DefaultQueueDepth {
		if _, err := e.Offer(&core.Post{ID: uint64(i + 2), Author: 0, Time: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.ch) != DefaultQueueDepth || cap(w.ch) != DefaultQueueDepth {
		t.Fatalf("queue holds %d of %d, want %d of %d", len(w.ch), cap(w.ch), DefaultQueueDepth, DefaultQueueDepth)
	}
	var last *Ticket
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk, err := e.Offer(&core.Post{ID: DefaultQueueDepth + 2, Author: 0, Time: 1})
		if err != nil {
			t.Errorf("blocking offer: %v", err)
			return
		}
		last = tk
	}()
	select {
	case <-done:
		t.Fatal("an offer completed against a full queue behind a held worker")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	<-done
	e.Close()
	if last == nil {
		t.Fatal("the blocked offer returned no ticket")
	}
	if len(first.Users()) != 1 || last.Seq() != DefaultQueueDepth+2 {
		t.Fatalf("first post delivered to %v, last seq %d; want one user and seq %d", first.Users(), last.Seq(), DefaultQueueDepth+2)
	}
}

func TestParallelCloseDrainsInFlight(t *testing.T) {
	g, subs, th := raceScenario(t)
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 300; i++ {
		tk, err := e.Offer(&core.Post{ID: uint64(i + 1), Author: int32(i % 16), Time: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	e.Close()
	for i, tk := range tickets {
		select {
		case <-tk.done:
		default:
			t.Fatalf("ticket %d unresolved after Close", i)
		}
	}
}

func TestParallelOptionsValidation(t *testing.T) {
	g := authorsim.NewGraph(1, nil, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	if _, err := NewParallelMultiEngineOpts(core.AlgUniBin, g, [][]int32{{0}}, th, 0, ParallelOptions{}); err == nil {
		t.Fatal("zero workers accepted")
	}
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, [][]int32{{0}}, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.WorkerSnapshots()[0].QueueCap; got != DefaultQueueDepth {
		t.Fatalf("queue capacity = %d, want %d", got, DefaultQueueDepth)
	}
}
