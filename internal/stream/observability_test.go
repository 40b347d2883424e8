package stream

import (
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/metrics"
)

func obsThresholds() core.Thresholds {
	return core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
}

// TestMultiEngineSnapshot checks the instrumentation the inline engine
// reports through its synchronous view: name, counters, the timeline store's
// size, and no per-worker snapshots (it has no queue).
func TestMultiEngineSnapshot(t *testing.T) {
	g := authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1}, {2}}, obsThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMultiEngine(md)
	defer m.Close()
	if m.Name() != "S_UniBin" {
		t.Fatalf("Name = %q", m.Name())
	}
	if _, err := m.Offer(core.NewPost(1, 0, 1000, "ferry sinks off coast tonight")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Offer(core.NewPost(2, 2, 2000, "ferry sinks off coast tonight")); err != nil {
		t.Fatal(err)
	}
	if posts, entries, bytes := m.TimelineSize(); posts != 2 || entries != 2 || bytes == 0 {
		t.Fatalf("TimelineSize = %d/%d/%d, want 2/2 and some bytes", posts, entries, bytes)
	}
	if c := m.Counters(); c.Accepted != 2 || c.Decisions.Count == 0 {
		t.Fatalf("Counters: accepted %d, %d decisions observed", c.Accepted, c.Decisions.Count)
	}
	if ws := m.WorkerSnapshots(); ws != nil {
		t.Fatalf("inline engine reports worker snapshots %+v", ws)
	}
}

// TestWorkerSnapshots checks the per-worker instrumentation of the parallel
// engine: the merged per-worker counters must equal the engine totals, queue
// waits must account every decided job, and per-worker accept/reject splits
// make shard imbalance visible.
func TestWorkerSnapshots(t *testing.T) {
	// Two disjoint components {0,1} and {2,3} over 2 workers: one component
	// each.
	g := authorsim.NewGraph(4, []authorsim.SimPair{{A: 0, B: 1}, {A: 2, B: 3}}, 0.7)
	subs := [][]int32{{0, 1}, {2, 3}}
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, obsThresholds(), 2)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"ferry sinks off southern coast rescue underway",
		"alibaba files landmark technology listing today",
		"wildfire spreads across northern hills evacuations",
		"senate passes budget amendment after marathon session",
	}
	total := 0
	for round := 0; round < 5; round++ {
		for a := int32(0); a < 4; a++ {
			txt := texts[a]
			tk, err := e.Offer(core.NewPost(uint64(total+1), a, int64(1000*(total+1)), txt))
			if err != nil {
				t.Fatal(err)
			}
			tk.Users()
			total++
		}
	}
	e.Close()

	snaps := e.WorkerSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	var mergedCounters []metrics.Counters
	var mergedWaits []metrics.Histogram
	for i, s := range snaps {
		if s.Worker != i {
			t.Fatalf("snapshot %d has Worker %d", i, s.Worker)
		}
		if s.QueueLen != 0 {
			t.Fatalf("worker %d queue not drained after Close: %d", i, s.QueueLen)
		}
		if s.QueueCap != DefaultQueueDepth {
			t.Fatalf("worker %d QueueCap = %d", i, s.QueueCap)
		}
		// Every shard saw half the posts; the duplicates within each shard
		// mean both accepted and rejected are non-zero per worker.
		if s.Counters.Processed() != uint64(total)/2 {
			t.Fatalf("worker %d processed %d, want %d", i, s.Counters.Processed(), total/2)
		}
		if s.Counters.Accepted == 0 || s.Counters.Rejected == 0 {
			t.Fatalf("worker %d accept/reject = %d/%d", i, s.Counters.Accepted, s.Counters.Rejected)
		}
		if s.QueueWait.Count != uint64(total)/2 {
			t.Fatalf("worker %d queue waits %d, want %d", i, s.QueueWait.Count, total/2)
		}
		mergedCounters = append(mergedCounters, s.Counters)
		mergedWaits = append(mergedWaits, s.QueueWait)
	}
	// Per-worker snapshots merge to the engine-level totals — the
	// Counters-style merge discipline.
	sum := metrics.Sum(mergedCounters...)
	engineTotal := e.Counters()
	if sum != engineTotal {
		t.Fatalf("merged worker counters != engine counters\nworkers: %+v\nengine:  %+v", sum, engineTotal)
	}
	if waits := metrics.MergeHistograms(mergedWaits...); waits.Count != uint64(total) {
		t.Fatalf("merged queue waits = %d, want %d", waits.Count, total)
	}
	if e.Name() != "S_UniBin" {
		t.Fatalf("Name = %q", e.Name())
	}
}
