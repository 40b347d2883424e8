package httpapi

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// publishEachUser is the reference fan-out: one index lookup per delivered
// user, whatever the number of subscribed users.
func publishEachUser(b *broker, users []int32, p TimelinePost) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, u := range users {
		for s := range b.byUser[u] {
			select {
			case s.ch <- p:
				b.published++
			default:
				b.dropped++
				b.droppedByUser[u]++
			}
		}
	}
}

// TestBrokerPublishMatchesPerUserLookup holds publish, which walks the
// subscriber index when fewer users have subscribers than the post was
// delivered to, to the per-delivered-user reference: every subscriber must
// receive the same events and the published, dropped and per-user drop
// counts must agree. Cases cover both walks, several subscribers of one
// user, full buffers and subscribers the post never reaches.
func TestBrokerPublishMatchesPerUserLookup(t *testing.T) {
	type scenario struct {
		name       string
		subs       []int32   // one subscriber each; repeated ids share a user
		full       []int     // indices into subs whose buffers start full
		deliveries [][]int32 // ascending delivered lists, published in order
	}
	cases := []scenario{
		{"no subscribers", nil, nil, [][]int32{{1, 2, 3}, nil}},
		{"fewer subscribed users than delivered", []int32{2, 2, 2, 9}, nil, [][]int32{{1, 2, 3, 5, 9, 11}, {0, 4}, {2}}},
		{"more subscribed users than delivered", []int32{0, 1, 2, 3, 4, 5, 6, 7}, nil, [][]int32{{3}, {1, 6}, {}}},
		{"full buffer beside two live ones on one user", []int32{4, 4, 4, 7}, []int{1}, [][]int32{{1, 4, 7, 8, 9}, {4}, {4, 7}}},
		{"full buffer, no other subscriber", []int32{10, 20}, []int{0}, [][]int32{{1, 2, 3, 10, 15}, {20}}},
		{"subscribers outside every delivery", []int32{0, 100, 100}, []int{2}, [][]int32{{1, 2, 3, 4}, {99, 101}}},
	}
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 20; i++ {
		sc := scenario{name: "random"}
		for range rng.Intn(12) {
			sc.subs = append(sc.subs, int32(rng.Intn(20)))
		}
		for j := range sc.subs {
			if rng.Intn(4) == 0 {
				sc.full = append(sc.full, j)
			}
		}
		for range 1 + rng.Intn(80) {
			var users []int32
			for u := int32(0); u < 20; u++ {
				if rng.Intn(3) == 0 {
					users = append(users, u)
				}
			}
			sc.deliveries = append(sc.deliveries, users)
		}
		cases = append(cases, sc)
	}

	walks := map[bool]int{} // whether the index was the shorter side
	for _, sc := range cases {
		got, want := newBroker(), newBroker()
		var gotSubs, wantSubs []*subscriber
		for _, u := range sc.subs {
			gotSubs = append(gotSubs, got.subscribe(u))
			wantSubs = append(wantSubs, want.subscribe(u))
		}
		for _, j := range sc.full {
			for _, s := range []*subscriber{gotSubs[j], wantSubs[j]} {
				for len(s.ch) < cap(s.ch) {
					s.ch <- TimelinePost{}
				}
			}
		}
		for i, users := range sc.deliveries {
			p := TimelinePost{ID: uint64(i + 1), Author: int32(i)}
			walks[len(got.byUser) < len(users)]++
			got.publish(users, p)
			publishEachUser(want, users, p)
		}
		gp, gd := got.eventCounts()
		wp, wd := want.eventCounts()
		if gp != wp || gd != wd {
			t.Fatalf("%s: published/dropped %d/%d, reference %d/%d", sc.name, gp, gd, wp, wd)
		}
		if g, w := got.userDrops(), want.userDrops(); !maps.Equal(g, w) {
			t.Fatalf("%s: drops by user %v, reference %v", sc.name, g, w)
		}
		for j := range gotSubs {
			g, w := drain(gotSubs[j]), drain(wantSubs[j])
			if !slices.Equal(g, w) {
				t.Fatalf("%s: subscriber %d (user %d) received %v, reference %v", sc.name, j, sc.subs[j], g, w)
			}
		}
	}
	if walks[true] == 0 || walks[false] == 0 {
		t.Fatalf("the cases walked the index %d times and the delivered list %d times; both must be covered",
			walks[true], walks[false])
	}
}

// drain empties a subscriber's buffer and returns the buffered post ids.
func drain(s *subscriber) []uint64 {
	var ids []uint64
	for len(s.ch) > 0 {
		ids = append(ids, (<-s.ch).ID)
	}
	return ids
}
