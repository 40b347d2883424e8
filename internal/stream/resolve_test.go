package stream

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"firehose/internal/checkpoint"
	"firehose/internal/core"
)

// TestEarlyResolutionIsInvisible checks that a worker resolving a ticket
// before it records the post's deliveries changes nothing a caller can see.
// Rounds alternate a 16-post OfferBatch and a single Offer. As soon as the
// ticket's Users returns, another goroutine writes over the returned lists
// and then reads: TimelineTail must list the round's posts for every user
// they were delivered to, TimelineSize must count them, and, every third
// round, a snapshot restored into a fresh engine must hold them — its next
// post takes the following sequence number, and a duplicate of the round's
// newest delivered post is covered. Under -race it also fails when the
// recording reads the lists handed to the caller or runs outside the
// worker's lock.
func TestEarlyResolutionIsInvisible(t *testing.T) {
	g, subs, posts := parallelScenario(t, 48, 200)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	e := newShape(t, core.AlgUniBin, g, subs, th, 2)
	defer e.Close()
	posts = posts[:min(len(posts), 1000)]

	var wantPosts, wantEntries uint64
	snapshots := 0
	for round, off := 0, 0; off < len(posts); round++ {
		n := 1
		if round%2 == 0 {
			n = min(16, len(posts)-off)
		}
		chunk := posts[off : off+n]
		off += n
		var resolve func() [][]int32
		var lastSeq uint64
		if n > 1 {
			bt, err := e.OfferBatch(chunk)
			if err != nil {
				t.Fatal(err)
			}
			resolve, lastSeq = bt.Users, bt.SeqBase()+uint64(n-1)
		} else {
			tk, err := e.Offer(chunk[0])
			if err != nil {
				t.Fatal(err)
			}
			resolve = func() [][]int32 { return [][]int32{tk.Users()} }
			lastSeq = tk.Seq()
		}
		snapshot := round%3 == 1
		type result struct {
			covered bool
			err     error
		}
		done := make(chan result, 1)
		go func() {
			rows := resolve()
			want := make([][]int32, len(rows))
			for i, row := range rows {
				want[i] = slices.Clone(row)
				for j := range row {
					row[j] = -1
				}
			}
			covered, err := checkRecorded(e, chunk, want, lastSeq, snapshot, &wantPosts, &wantEntries,
				func() (*ParallelMultiEngine, error) { return NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 2) })
			done <- result{covered, err}
		}()
		r := <-done
		if r.err != nil {
			t.Fatalf("round %d: %v", round, r.err)
		}
		if r.covered {
			snapshots++
		}
	}
	if snapshots < 10 {
		t.Fatalf("only %d rounds checked a snapshot; the scenario should give more", snapshots)
	}
}

// checkRecorded runs the reads of TestEarlyResolutionIsInvisible for one
// resolved round: chunk's posts were delivered to delivered[i], the newest
// at sequence number lastSeq. covered reports that a snapshot was restored
// and the duplicate check applied, which needs the newest post delivered.
func checkRecorded(e *ParallelMultiEngine, chunk []*core.Post, delivered [][]int32, lastSeq uint64, snapshot bool,
	wantPosts, wantEntries *uint64, fresh func() (*ParallelMultiEngine, error)) (covered bool, err error) {
	byUser := map[int32][]uint64{}
	for i, users := range delivered {
		if len(users) > 0 {
			*wantPosts++
			*wantEntries += uint64(len(users))
		}
		for _, u := range users {
			byUser[u] = append(byUser[u], chunk[i].ID)
		}
	}
	for u, ids := range byUser {
		tail, _, _ := e.TimelineTail(u, len(ids))
		got := make([]uint64, len(tail))
		for i, p := range tail {
			got[i] = p.ID
		}
		if !slices.Equal(got, ids) {
			return false, fmt.Errorf("user %d's newest posts are %v, want %v", u, got, ids)
		}
	}
	if posts, entries, _ := e.TimelineSize(); posts != *wantPosts || entries != *wantEntries {
		return false, fmt.Errorf("TimelineSize counts %d posts and %d entries, want %d and %d",
			posts, entries, *wantPosts, *wantEntries)
	}
	if !snapshot {
		return false, nil
	}
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "stream.test")
	if err := e.SnapshotState(enc); err != nil {
		return false, err
	}
	if err := enc.Finish(); err != nil {
		return false, err
	}
	r, err := fresh()
	if err != nil {
		return false, err
	}
	defer r.Close()
	if err := restoreEngine(r, buf.Bytes()); err != nil {
		return false, err
	}
	last := chunk[len(chunk)-1]
	dup := *last
	tk, err := r.Offer(&dup)
	if err != nil {
		return false, err
	}
	if tk.Seq() != lastSeq+1 {
		return false, fmt.Errorf("the restored engine numbers its next post %d, want %d", tk.Seq(), lastSeq+1)
	}
	if len(delivered[len(chunk)-1]) == 0 {
		return false, nil
	}
	if users := tk.Users(); len(users) > 0 {
		return false, fmt.Errorf("the restored engine delivered a duplicate of post %d to %v; the snapshot misses it", last.ID, users)
	}
	return true, nil
}
