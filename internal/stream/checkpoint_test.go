package stream

import (
	"bytes"
	"slices"
	"sort"
	"sync"
	"testing"

	"firehose/internal/checkpoint"
	"firehose/internal/core"
)

// snapEngine serializes one engine into a complete checkpoint stream.
func snapEngine(t *testing.T, s core.StateSnapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "stream.test")
	if err := s.SnapshotState(enc); err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	if err := enc.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

func restoreEngine(s core.StateSnapshotter, raw []byte) error {
	dec, err := checkpoint.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if err := s.RestoreState(dec); err != nil {
		return err
	}
	return dec.Finish()
}

func sortedUsers(u []int32) []int32 {
	u = slices.Clone(u)
	sort.Slice(u, func(a, b int) bool { return u[a] < u[b] })
	return u
}

// TestParallelSnapshotEquivalence is the tentpole correctness bar at the
// stream layer: snapshot a parallel engine at a prefix boundary, restore
// into a fresh engine, and require the suffix delivery sequence to be
// identical to the uninterrupted run — at 1 worker, at 4 and on the inline
// engine.
func TestParallelSnapshotEquivalence(t *testing.T) {
	g, subs, posts := parallelScenario(t, 31, 220)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	for _, workers := range []int{1, 4, inlineShape} {
		for _, alg := range []core.Algorithm{core.AlgUniBin, core.AlgNeighborBin, core.AlgCliqueBin} {
			t.Run(alg.String(), func(t *testing.T) {
				cont := newShape(t, alg, g, subs, th, workers)
				restored := newShape(t, alg, g, subs, th, workers)
				cut := len(posts) / 2
				for _, p := range posts[:cut] {
					if _, err := cont.Offer(p); err != nil {
						t.Fatal(err)
					}
				}
				// No explicit drain needed: SnapshotState quiesces.
				raw := snapEngine(t, cont)
				if err := restoreEngine(restored, raw); err != nil {
					t.Fatalf("workers=%d: restore: %v", workers, err)
				}
				for i, p := range posts[cut:] {
					a, err := cont.Offer(p)
					if err != nil {
						t.Fatal(err)
					}
					b, err := restored.Offer(p)
					if err != nil {
						t.Fatal(err)
					}
					if au, bu := sortedUsers(a.Users()), sortedUsers(b.Users()); !slices.Equal(au, bu) {
						t.Fatalf("workers=%d: suffix post %d diverged: uninterrupted=%v restored=%v", workers, i, au, bu)
					}
					if a.Seq() != b.Seq() {
						t.Fatalf("workers=%d: sequence watermark diverged: %d vs %d", workers, a.Seq(), b.Seq())
					}
				}
				cont.Close()
				restored.Close()
				ac, bc := cont.Counters(), restored.Counters()
				if ac.Accepted != bc.Accepted || ac.Rejected != bc.Rejected || ac.Comparisons != bc.Comparisons {
					t.Fatalf("workers=%d: counters diverged: %v vs %v", workers, ac, bc)
				}
			})
		}
	}
}

// TestParallelSnapshotDuringConcurrentIngest: taking a snapshot — or a Swap,
// which shares its quiesce — while producers hammer the engine must neither
// race (run under -race) nor deadlock, and the stream it produces must
// restore cleanly.
func TestParallelSnapshotDuringConcurrentIngest(t *testing.T) {
	g, subs, posts := parallelScenario(t, 32, 150)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 4)
	if err != nil {
		t.Fatal(err)
	}
	// One producer preserves the global timestamp order the engine requires;
	// snapshots race against it from another goroutine.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range posts {
			if _, err := e.Offer(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var snaps [][]byte
	for i := 0; i < 8; i++ {
		snaps = append(snaps, snapEngine(t, e))
		if err := e.Swap(func(md core.MultiDiversifier) core.MultiDiversifier { return md }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, raw := range snaps {
		fresh, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := restoreEngine(fresh, raw); err != nil {
			t.Fatalf("snapshot %d did not restore: %v", i, err)
		}
		fresh.Close()
	}
	e.Close()
}

// TestParallelSnapshotAfterCloseErrors: the quiesce protocol needs live
// workers; a closed engine reports ErrClosed instead of hanging.
func TestParallelSnapshotAfterCloseErrors(t *testing.T) {
	g, subs, _ := parallelScenario(t, 33, 60)
	th := core.Thresholds{LambdaC: 18, LambdaT: 1000, LambdaA: 0.7}
	e, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "stream.test")
	if err := e.SnapshotState(enc); err != ErrClosed {
		t.Fatalf("SnapshotState on closed engine: %v", err)
	}
}

// TestParallelRestoreWorkerCountMismatch: restoring a 4-worker snapshot into
// a 2-worker engine must fail descriptively — shard solvers are per-worker
// and cannot be re-split.
func TestParallelRestoreWorkerCountMismatch(t *testing.T) {
	g, subs, posts := parallelScenario(t, 34, 100)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	e4, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts[:50] {
		if _, err := e4.Offer(p); err != nil {
			t.Fatal(err)
		}
	}
	raw := snapEngine(t, e4)
	e4.Close()
	e2, err := NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := restoreEngine(e2, raw); err == nil {
		t.Fatal("restore across worker counts succeeded")
	}
}

// TestMultiEngineSnapshotEquivalence: the synchronous view over the inline
// engine carries its accounting and solver state across a snapshot/restore,
// and the restored engine's suffix decisions match; timelines restart empty
// by design.
func TestMultiEngineSnapshotEquivalence(t *testing.T) {
	g, subs, posts := parallelScenario(t, 35, 150)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	mk := func() *MultiEngine {
		md, err := core.NewSharedMultiUser(core.AlgNeighborBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		return NewMultiEngine(md)
	}
	cont, restored := mk(), mk()
	cut := len(posts) / 2
	for _, p := range posts[:cut] {
		if _, err := cont.Offer(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := restoreEngine(restored, snapEngine(t, cont)); err != nil {
		t.Fatal(err)
	}
	for i, p := range posts[cut:] {
		a, err := cont.Offer(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Offer(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("suffix post %d diverged: %v vs %v", i, a, b)
		}
	}
	ac, bc := cont.Counters(), restored.Counters()
	if ac.Accepted != bc.Accepted || ac.Rejected != bc.Rejected {
		t.Fatalf("accounting diverged: %d/%d vs %d/%d", ac.Accepted, ac.Rejected, bc.Accepted, bc.Rejected)
	}
	// Restored timelines contain only post-restore deliveries.
	for u := range subs {
		tl := restored.Timeline(int32(u))
		for _, p := range tl {
			if p.ID <= posts[cut-1].ID {
				t.Fatalf("restored timeline of user %d contains pre-snapshot post %d", u, p.ID)
			}
		}
	}
}
