package core

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestCustomMultiUserPerUserLambdaT(t *testing.T) {
	g := pairGraph(2, [2]int32{0, 1})
	// User 0: tight window (1s). User 1: wide window (1h).
	ths := []Thresholds{
		{LambdaC: 3, LambdaT: 1_000, LambdaA: 0.7},
		{LambdaC: 3, LambdaT: 3_600_000, LambdaA: 0.7},
	}
	subs := [][]int32{{0, 1}, {0, 1}}
	c, err := NewCustomMultiUser(AlgUniBin, g, subs, ths)
	if err != nil {
		t.Fatal(err)
	}

	p1 := &Post{ID: 1, Author: 0, Time: 0, FP: 0}
	p2 := &Post{ID: 2, Author: 1, Time: 60_000, FP: 0} // 1 min later, same content
	if got := c.Offer(p1); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("p1 delivered to %v", got)
	}
	// User 0's 1s window has expired, so p2 is fresh for them; user 1's 1h
	// window still covers it.
	if got := c.Offer(p2); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("p2 delivered to %v, want [0]", got)
	}
}

func TestCustomMultiUserPerUserLambdaC(t *testing.T) {
	g := pairGraph(1)
	ths := []Thresholds{
		{LambdaC: 0, LambdaT: 1000, LambdaA: 0.7},  // exact duplicates only
		{LambdaC: 10, LambdaT: 1000, LambdaA: 0.7}, // fuzzy matching
	}
	subs := [][]int32{{0}, {0}}
	c, err := NewCustomMultiUser(AlgUniBin, g, subs, ths)
	if err != nil {
		t.Fatal(err)
	}
	c.Offer(&Post{ID: 1, Author: 0, Time: 0, FP: 0})
	// Distance-3 variant: fresh for the strict user 0, covered for user 1.
	got := c.Offer(&Post{ID: 2, Author: 0, Time: 10, FP: 0b111})
	if !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("delivered to %v, want [0]", got)
	}
}

func TestCustomMultiUserMatchesUniformWhenEqual(t *testing.T) {
	// With identical thresholds for everyone, Custom_M must reproduce M_*.
	rng := rand.New(rand.NewSource(17))
	nAuthors, nUsers := 10, 4
	g, posts := randomScenario(rng, nAuthors, 250, 0.3)
	subs := randomSubscriptions(rng, nUsers, nAuthors)
	th := Thresholds{LambdaC: 6, LambdaT: 700, LambdaA: 0.7}
	ths := make([]Thresholds, nUsers)
	for i := range ths {
		ths[i] = th
	}

	c, err := NewCustomMultiUser(AlgUniBin, g, subs, ths)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	ct := timelinesOf(c, posts, nUsers)
	mt := timelinesOf(m, posts, nUsers)
	for u := range ct {
		if !reflect.DeepEqual(ct[u], mt[u]) {
			t.Fatalf("user %d: custom %v != uniform %v", u, ct[u], mt[u])
		}
	}
}

func TestCustomMultiUserValidation(t *testing.T) {
	g := pairGraph(2, [2]int32{0, 1})
	th := Thresholds{LambdaC: 3, LambdaT: 10, LambdaA: 0.7}

	if _, err := NewCustomMultiUser(AlgUniBin, g, [][]int32{{0}}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Divergent LambdaA across users must be rejected — the shared graph
	// encodes exactly one.
	if _, err := NewCustomMultiUser(AlgUniBin, g, [][]int32{{0}, {1}}, []Thresholds{
		th, {LambdaC: 3, LambdaT: 10, LambdaA: 0.5},
	}); err == nil {
		t.Fatal("divergent LambdaA accepted")
	}
	if _, err := NewCustomMultiUser(AlgUniBin, g, [][]int32{{9}}, []Thresholds{th}); err == nil {
		t.Fatal("out-of-range subscription accepted")
	}
	if _, err := NewCustomMultiUser(AlgUniBin, g, [][]int32{{0}}, []Thresholds{{LambdaC: -1}}); err == nil {
		t.Fatal("invalid thresholds accepted")
	}
	c, err := NewCustomMultiUser(AlgCliqueBin, g, [][]int32{{0, 1}}, []Thresholds{th})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "Custom_M" {
		t.Fatalf("Name = %q", c.Name())
	}
	if got := c.Offer(&Post{ID: 1, Author: 99, Time: 1, FP: 0}); got != nil {
		t.Fatalf("out-of-range author delivered to %v", got)
	}
	if c.Counters().Processed() != 0 {
		t.Fatal("nothing should have been processed")
	}
}
