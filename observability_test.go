package firehose

import "testing"

// TestStatsDecisionLatency checks that every decided post is accounted in the
// public latency summary and that its percentiles are ordered.
func TestStatsDecisionLatency(t *testing.T) {
	graph, posts, subs := generateScenario(t, 120, 7)
	svc, err := NewService(graph, subs, ServiceOptions{Algorithm: UniBin, Config: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts {
		svc.Offer(p)
	}
	st := svc.Stats()
	lat := st.DecisionLatency
	if lat.Count != st.Accepted+st.Rejected {
		t.Fatalf("latency count %d != decided %d", lat.Count, st.Accepted+st.Rejected)
	}
	if lat.Mean <= 0 {
		t.Fatalf("mean latency %v", lat.Mean)
	}
	if lat.P50 > lat.P95 || lat.P95 > lat.P99 {
		t.Fatalf("percentiles out of order: %v / %v / %v", lat.P50, lat.P95, lat.P99)
	}
}

// TestParallelWorkerStats checks the per-worker observability surface of the
// parallel service: worker stats sum to the service totals and queue waits
// account every decided post.
func TestParallelWorkerStats(t *testing.T) {
	graph, posts, subs := generateScenario(t, 150, 23)
	par, err := NewParallel(graph, subs, ParallelServiceOptions{Algorithm: UniBin, Config: DefaultConfig(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts {
		if _, err := par.Offer(p); err != nil {
			t.Fatal(err)
		}
	}
	par.Close()

	ws := par.WorkerStats()
	if len(ws) != 3 {
		t.Fatalf("got %d worker stats", len(ws))
	}
	total := par.Stats()
	var decided, waits uint64
	for i, w := range ws {
		if w.Worker != i {
			t.Fatalf("worker stats out of order: %d at %d", w.Worker, i)
		}
		if w.QueueDepth != 0 {
			t.Fatalf("worker %d queue not drained: %d", i, w.QueueDepth)
		}
		if w.QueueCapacity != 256 {
			t.Fatalf("worker %d capacity %d, want the fixed bound 256", i, w.QueueCapacity)
		}
		decided += w.Stats.Accepted + w.Stats.Rejected
		waits += w.QueueWait.Count
	}
	if want := total.Accepted + total.Rejected; decided != want {
		t.Fatalf("per-worker decided %d != total %d", decided, want)
	}
	if waits != uint64(len(posts)) {
		t.Fatalf("queue waits %d != posts %d", waits, len(posts))
	}
}
