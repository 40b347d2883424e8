package stream

import (
	"reflect"
	"sync"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
)

func testGraph() *authorsim.Graph {
	return authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
}

func TestMultiEngine(t *testing.T) {
	g := testGraph()
	th := core.Thresholds{LambdaC: 3, LambdaT: 1000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1}, {0, 1}, {2}}, th)
	if err != nil {
		t.Fatal(err)
	}
	me := NewMultiEngine(md)
	users, err := me.Offer(&core.Post{ID: 1, Author: 0, Time: 1, FP: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(users, []int32{0, 1}) {
		t.Fatalf("delivered to %v", users)
	}
	if tl := me.Timeline(0); len(tl) != 1 || tl[0].ID != 1 {
		t.Fatalf("timeline(0) = %v", tl)
	}
	if tl := me.Timeline(2); len(tl) != 0 {
		t.Fatalf("timeline(2) = %v", tl)
	}
	if c := me.Counters(); c.Accepted != 1 {
		t.Fatalf("counters %+v", c)
	}
	me.Close()
	if _, err := me.Offer(&core.Post{ID: 2, Author: 0, Time: 2, FP: 0}); err == nil {
		t.Fatal("offer after Close should fail")
	}
}

func TestMultiEngineSwapRefreshedGraph(t *testing.T) {
	// Graph churn against a live multi-user engine: a follow change folds
	// into a refreshed graph (the paper's incremental maintenance), Swap is
	// the safe point, and the pre-swap window state stays in force. Chain
	// 0–1–2–3 keeps all four authors in one shared component so the new
	// 0–3 edge is visible to the S_* solver's construction-time partition.
	g := authorsim.NewGraph(4, []authorsim.SimPair{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}}, 0.7)
	th := core.Thresholds{LambdaC: 3, LambdaT: 60_000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1, 2, 3}}, th)
	if err != nil {
		t.Fatal(err)
	}
	me := NewMultiEngine(md)
	if users, _ := me.Offer(&core.Post{ID: 1, Author: 0, Time: 1000, FP: 0}); len(users) != 1 {
		t.Fatalf("first post delivered to %v", users)
	}
	g2, err := g.WithUpdatedAuthor(0, []int32{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Swap(func(d core.MultiDiversifier) core.MultiDiversifier {
		if err := d.(*core.SharedMultiUser).SetGraph(g2); err != nil {
			t.Errorf("SetGraph: %v", err)
		}
		return d
	}); err != nil {
		t.Fatal(err)
	}
	// Author 3's identical post is now covered by author 0's pre-swap post.
	if users, _ := me.Offer(&core.Post{ID: 2, Author: 3, Time: 2000, FP: 0}); len(users) != 0 {
		t.Fatalf("refreshed adjacency not consulted, delivered to %v", users)
	}
	// Author 2 remains non-adjacent to 0: still delivered, timeline intact.
	if users, _ := me.Offer(&core.Post{ID: 3, Author: 2, Time: 3000, FP: 0}); len(users) != 1 {
		t.Fatalf("unrelated author suppressed after swap: %v", users)
	}
	if tl := me.Timeline(0); len(tl) != 2 || tl[0].ID != 1 || tl[1].ID != 3 {
		t.Fatalf("timeline after churn = %v", tl)
	}
}

func TestMultiEngineConcurrent(t *testing.T) {
	g := testGraph()
	th := core.Thresholds{LambdaC: 3, LambdaT: 5, LambdaA: 0.7}
	md, _ := core.NewSharedMultiUser(core.AlgNeighborBin, g, [][]int32{{0, 1, 2}}, th)
	me := NewMultiEngine(md)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if _, err := me.Offer(&core.Post{
				ID: uint64(id + 1), Author: int32(id % 3), Time: 50, FP: core.Fingerprint("y"),
			}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for u := int32(0); u < 1; u++ {
		total += len(me.Timeline(u))
	}
	// Authors 0,1 are similar so their posts collapse; author 2 is isolated.
	if total != 2 {
		t.Fatalf("timeline total %d, want 2 (one per similarity class)", total)
	}
}
