package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/metrics"
)

// snapState serializes one engine's state into a complete checkpoint stream.
func snapState(t *testing.T, s StateSnapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "core.test")
	if err := s.SnapshotState(enc); err != nil {
		t.Fatalf("SnapshotState: %v", err)
	}
	if err := enc.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

// restoreState decodes a snapState stream into s, verifying the checksum.
func restoreState(s StateSnapshotter, raw []byte) error {
	dec, err := checkpoint.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if err := s.RestoreState(dec); err != nil {
		return err
	}
	return dec.Finish()
}

// decisionCounters projects the deterministic part of a counter snapshot —
// everything except the wall-clock latency sums and buckets, which
// legitimately differ between an uninterrupted run and a restored one.
func decisionCounters(c *metrics.Counters) [8]uint64 {
	return [8]uint64{
		c.Comparisons, c.Insertions, c.Evictions, c.Accepted, c.Rejected,
		uint64(c.StoredLive()), uint64(c.StoredPeak), c.Decisions.Count,
	}
}

// TestSingleUserSnapshotEquivalence is the correctness bar for the per-user
// engines: run a random prefix, snapshot, restore into a fresh engine, and
// require the suffix decision sequence (and the deterministic counters) to
// match the uninterrupted run exactly, for every algorithm.
func TestSingleUserSnapshotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g, posts := randomScenario(rng, 12, 500, 0.3)
	th := Thresholds{LambdaC: 6, LambdaT: 400, LambdaA: 0.7}
	indexOn := th
	indexOn.Index = IndexOn // C(8,6) = 28 tables, rebuilt over the restored ring
	authors := allAuthorIDs(12)
	builders := map[string]func() Diversifier{
		"UniBin":         func() Diversifier { return NewUniBin(g, th) },
		"UniBin_IndexOn": func() Diversifier { return NewUniBin(g, indexOn) },
		"NeighborBin":    func() Diversifier { return NewNeighborBin(g, th) },
		"CliqueBin":      func() Diversifier { return NewCliqueBin(authorsim.GreedyCliqueCover(g, authors), th) },
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			for _, cut := range []int{0, 1, 137, 250, len(posts) - 1} {
				cont, restored := mk(), mk()
				for _, p := range posts[:cut] {
					cont.Offer(p)
				}
				raw := snapState(t, cont.(StateSnapshotter))
				if err := restoreState(restored.(StateSnapshotter), raw); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				for i, p := range posts[cut:] {
					q := *p // engines share no post state, but keep inputs distinct anyway
					if a, b := cont.Offer(p), restored.Offer(&q); a != b {
						t.Fatalf("cut %d: decision diverged at suffix post %d: uninterrupted=%v restored=%v", cut, i, a, b)
					}
				}
				if a, b := decisionCounters(cont.Counters()), decisionCounters(restored.Counters()); a != b {
					t.Fatalf("cut %d: counters diverged: uninterrupted=%v restored=%v", cut, a, b)
				}
			}
		})
	}
}

// multiScenario builds random subscriptions over the scenario graph.
func multiScenario(rng *rand.Rand, nAuthors, nUsers int) [][]int32 {
	subs := make([][]int32, nUsers)
	for u := range subs {
		for a := 0; a < nAuthors; a++ {
			if rng.Float64() < 0.4 {
				subs[u] = append(subs[u], int32(a))
			}
		}
		if len(subs[u]) == 0 {
			subs[u] = []int32{int32(rng.Intn(nAuthors))}
		}
	}
	return subs
}

// TestMultiUserSnapshotEquivalence: same bar for the M_*, S_* and Custom
// solvers — the restored engine must deliver the suffix to exactly the same
// users as the uninterrupted one.
func TestMultiUserSnapshotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g, posts := randomScenario(rng, 14, 500, 0.25)
	subs := multiScenario(rng, 14, 9)
	th := Thresholds{LambdaC: 6, LambdaT: 400, LambdaA: 0.7}
	ths := make([]Thresholds, len(subs))
	for i := range ths {
		ths[i] = Thresholds{LambdaC: 3 + i%5, LambdaT: int64(200 + 100*(i%4)), LambdaA: 0.7}
	}
	builders := map[string]func() MultiDiversifier{}
	for _, alg := range []Algorithm{AlgUniBin, AlgNeighborBin, AlgCliqueBin} {
		alg := alg
		builders["M_"+alg.String()] = func() MultiDiversifier {
			m, err := NewMultiUser(alg, g, subs, th)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		builders["S_"+alg.String()] = func() MultiDiversifier {
			s, err := NewSharedMultiUser(alg, g, subs, th)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	builders["Custom"] = func() MultiDiversifier {
		c, err := NewCustomMultiUser(AlgUniBin, g, subs, ths)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			cut := 200 + rng.Intn(100)
			cont, restored := mk(), mk()
			for _, p := range posts[:cut] {
				cont.Offer(p)
			}
			raw := snapState(t, cont.(StateSnapshotter))
			if err := restoreState(restored.(StateSnapshotter), raw); err != nil {
				t.Fatalf("restore: %v", err)
			}
			for i, p := range posts[cut:] {
				a := append([]int32(nil), cont.Offer(p)...) // Offer's slice aliases scratch
				b := restored.Offer(p)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("delivery diverged at suffix post %d: uninterrupted=%v restored=%v", i, a, b)
				}
			}
			if a, b := decisionCounters(cont.Counters()), decisionCounters(restored.Counters()); a != b {
				t.Fatalf("counters diverged: uninterrupted=%v restored=%v", a, b)
			}
		})
	}
}

// TestSnapshotDeterministic: identical engine state must serialize to
// identical bytes (NeighborBin's bins are a map; the codec must not leak
// iteration order).
func TestSnapshotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g, posts := randomScenario(rng, 10, 300, 0.35)
	th := Thresholds{LambdaC: 6, LambdaT: 500, LambdaA: 0.7}
	nb := NewNeighborBin(g, th)
	for _, p := range posts {
		nb.Offer(p)
	}
	a := snapState(t, nb)
	for i := 0; i < 20; i++ {
		if b := snapState(t, nb); !bytes.Equal(a, b) {
			t.Fatalf("snapshot %d differs from first", i)
		}
	}
}

// TestRestoreStructuralMismatch: a snapshot taken from a differently shaped
// engine must fail with a descriptive error, not restore garbage.
func TestRestoreStructuralMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	g, posts := randomScenario(rng, 10, 100, 0.3)
	th := Thresholds{LambdaC: 6, LambdaT: 500, LambdaA: 0.7}
	subs := multiScenario(rng, 10, 5)

	t.Run("wrong kind tag", func(t *testing.T) {
		u := NewUniBin(g, th)
		for _, p := range posts {
			u.Offer(p)
		}
		err := restoreState(NewNeighborBin(g, th), snapState(t, u))
		if err == nil || !strings.Contains(err.Error(), "unibin") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("different user count", func(t *testing.T) {
		m, err := NewMultiUser(AlgUniBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := NewMultiUser(AlgUniBin, g, subs[:3], th)
		if err != nil {
			t.Fatal(err)
		}
		if err := restoreState(m2, snapState(t, m)); err == nil || !strings.Contains(err.Error(), "users") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("different clique cover", func(t *testing.T) {
		full := NewCliqueBin(authorsim.GreedyCliqueCover(g, allAuthorIDs(10)), th)
		small := NewCliqueBin(authorsim.GreedyCliqueCover(g, allAuthorIDs(3)), th)
		if err := restoreState(small, snapState(t, full)); err == nil || !strings.Contains(err.Error(), "cliques") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("different subscriptions shared", func(t *testing.T) {
		s1, err := NewSharedMultiUser(AlgNeighborBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewSharedMultiUser(AlgNeighborBin, g, [][]int32{{0}, {1}}, th)
		if err != nil {
			t.Fatal(err)
		}
		if err := restoreState(s2, snapState(t, s1)); err == nil {
			t.Fatal("restore across different subscriptions succeeded")
		}
	})
}

// TestRestoreFailureLeavesEngineUsable: a single-instance restore that fails
// must leave the target untouched — it keeps serving its own state.
func TestRestoreFailureLeavesEngineUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	g, posts := randomScenario(rng, 8, 200, 0.3)
	th := Thresholds{LambdaC: 6, LambdaT: 500, LambdaA: 0.7}
	u := NewUniBin(g, th)
	for _, p := range posts[:100] {
		u.Offer(p)
	}
	before := decisionCounters(u.Counters())
	raw := snapState(t, u)
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := restoreState(u, corrupt); err == nil {
		t.Fatal("corrupted restore succeeded")
	}
	if after := decisionCounters(u.Counters()); before != after {
		t.Fatalf("failed restore mutated engine: %v -> %v", before, after)
	}
	for _, p := range posts[100:] {
		u.Offer(p) // must not panic on preserved state
	}
}

// TestRestoreCorruptionNeverPanics flips every bit of a real engine snapshot
// and requires restore to fail with an error every time — the CRC plus the
// semantic validation must catch everything without panicking (postbin.Push
// panics on out-of-order times, the graph panics on unknown authors; the
// decoder must reject both before they are reachable).
func TestRestoreCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	g, posts := randomScenario(rng, 10, 250, 0.3)
	subs := multiScenario(rng, 10, 4)
	th := Thresholds{LambdaC: 6, LambdaT: 400, LambdaA: 0.7}
	for _, alg := range []Algorithm{AlgCliqueBin, AlgUniBin} {
		s, err := NewSharedMultiUser(alg, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range posts {
			s.Offer(p)
		}
		sweepBitFlips(t, snapState(t, s), func() StateSnapshotter {
			fresh, err := NewSharedMultiUser(alg, g, subs, th)
			if err != nil {
				t.Fatal(err)
			}
			return fresh
		})
	}
}

// sweepBitFlips flips every bit of raw (strided on large snapshots to bound
// the quadratic cost while still hitting every byte) and requires restore
// into a fresh engine to error — never panic, never silently succeed.
func sweepBitFlips(t *testing.T, raw []byte, mkFresh func() StateSnapshotter) {
	t.Helper()
	stride := 1
	if len(raw) > 2048 {
		stride = len(raw) / 2048
	}
	for off := 0; off < len(raw); off += stride {
		for bit := 0; bit < 8; bit++ {
			corrupt := append([]byte(nil), raw...)
			corrupt[off] ^= 1 << bit
			fresh := mkFresh()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("restore panicked at byte %d bit %d: %v", off, bit, r)
					}
				}()
				if err := restoreState(fresh, corrupt); err == nil {
					t.Fatalf("bit flip at byte %d bit %d restored without error", off, bit)
				}
			}()
		}
	}
}

// TestRestoreTruncationAlwaysErrors: every proper prefix of an engine
// snapshot must fail restore.
func TestRestoreTruncationAlwaysErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g, posts := randomScenario(rng, 8, 150, 0.3)
	th := Thresholds{LambdaC: 6, LambdaT: 400, LambdaA: 0.7}
	nb := NewNeighborBin(g, th)
	for _, p := range posts {
		nb.Offer(p)
	}
	sweepTruncations(t, snapState(t, nb), func() StateSnapshotter { return NewNeighborBin(g, th) })

	subs := multiScenario(rng, 8, 5)
	s, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts {
		s.Offer(p)
	}
	sweepTruncations(t, snapState(t, s), func() StateSnapshotter {
		fresh, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		return fresh
	})
}

// sweepTruncations requires every proper prefix of raw (strided on large
// snapshots) to fail restore into a fresh engine.
func sweepTruncations(t *testing.T, raw []byte, mkFresh func() StateSnapshotter) {
	t.Helper()
	stride := 1
	if len(raw) > 4096 {
		stride = len(raw) / 4096
	}
	for n := 0; n < len(raw); n += stride {
		if err := restoreState(mkFresh(), raw[:n]); err == nil {
			t.Fatalf("restore of %d-byte prefix (of %d) succeeded", n, len(raw))
		}
	}
}

// encodeSharedRings writes an S_UniBin section the way SnapshotState does,
// letting edit rewrite each entry's author and emitter list on the way out —
// the corruptions a checksum cannot catch because the writer made them.
func encodeSharedRings(enc *checkpoint.Encoder, s *SharedMultiUser, edit func(ri, i int, author int32, emitters []int32) (int32, []int32)) {
	enc.String("sharedmultiuser")
	enc.Uvarint(uint64(len(s.comps)))
	for _, comp := range s.comps {
		enc.Uvarint(uint64(len(comp.authors)))
		enc.Uvarint(uint64(len(comp.users)))
	}
	enc.Uvarint(uint64(len(s.rings)))
	for ri := range s.rings {
		r := &s.rings[ri]
		tOld, tNew := r.bin.soa.TimeSegments()
		fOld, fNew := r.bin.soa.FPSegments()
		aOld, aNew := r.bin.soa.AuthorSegments()
		ts, fps, as := append(slices.Clone(tOld), tNew...), append(slices.Clone(fOld), fNew...), append(slices.Clone(aOld), aNew...)
		lists := make([][]int32, len(ts))
		for i := range ts {
			as[i], lists[i] = edit(ri, i, as[i], slices.Clone(r.emittersOf(i)))
		}
		enc.Uvarint(uint64(len(ts)))
		for i := range ts {
			enc.Varint(ts[i])
			enc.U64(fps[i])
			enc.Varint(int64(as[i]))
		}
		for _, list := range lists {
			enc.Uvarint(uint64(len(list)))
			prev := int64(-1)
			for _, k := range list {
				enc.Uvarint(uint64(int64(k) - prev))
				prev = int64(k)
			}
		}
		enc.Varint(r.peak)
	}
	encodeCounters(enc, s.Counters())
}

// TestSharedRingRestoreValidation: the ring invariants the scan relies on
// must be checked on restore, each failing with a descriptive error and
// leaving the target untouched — a corrupted emitter id would otherwise
// index out of range on a later Offer, and a wrong one would silently
// change decisions.
func TestSharedRingRestoreValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g, posts, subs := clusteredScenario(rng, 400)
	th := Thresholds{LambdaC: 6, LambdaT: 400, LambdaA: 0.7}
	s, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts {
		s.Offer(p)
	}
	// Target a ring's newest entry whose author sits in two instances (so
	// two valid emitters can be written out of order).
	target, last, author := -1, -1, int32(-1)
	for ri := range s.rings {
		if cur := s.rings[ri].bin.soa.Scan(); cur.Next() && len(s.authorToComps[cur.Author()]) >= 2 {
			target, last, author = ri, s.rings[ri].len()-1, cur.Author()
			break
		}
	}
	if target < 0 {
		t.Fatal("degenerate scenario: no ring's newest author is in two instances")
	}
	insts := s.authorToComps[author]
	// An instance that lacks the author, and an author outside the ring.
	lacking, outsider := int32(-1), int32(-1)
	for k, comp := range s.comps {
		if _, ok := slices.BinarySearch(comp.authors, author); !ok && lacking < 0 {
			lacking = int32(k)
		}
	}
	for a, ri := range s.authorRing {
		if ri >= 0 && ri != int32(target) && outsider < 0 {
			outsider = int32(a)
		}
	}
	if lacking < 0 || outsider < 0 {
		t.Fatalf("degenerate scenario: lacking instance %d, outside author %d", lacking, outsider)
	}

	cases := []struct {
		name string
		edit func(em []int32) (int32, []int32)
		want string
	}{
		{"emitter out of range", func(em []int32) (int32, []int32) {
			return author, append(em, int32(len(s.comps)))
		}, "outside"},
		{"emitter lacks author", func(em []int32) (int32, []int32) {
			return author, []int32{lacking}
		}, "does not contain author"},
		{"unsorted emitters", func(em []int32) (int32, []int32) {
			return author, []int32{insts[1], insts[0]}
		}, "out of order"},
		{"duplicate emitters", func(em []int32) (int32, []int32) {
			return author, []int32{em[0], em[0]}
		}, "out of order"},
		{"empty emitter list", func(em []int32) (int32, []int32) {
			return author, nil
		}, "no emitting instance"},
		{"author outside its ring", func(em []int32) (int32, []int32) {
			return outsider, em
		}, "invalid author"},
	}
	clean := snapState(t, s)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc := checkpoint.NewEncoder(&buf, "core.test")
			encodeSharedRings(enc, s, func(ri, i int, a int32, em []int32) (int32, []int32) {
				if ri == target && i == last {
					return tc.edit(em)
				}
				return a, em
			})
			if err := enc.Finish(); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
			if err != nil {
				t.Fatal(err)
			}
			before := snapState(t, fresh)
			err = restoreState(fresh, buf.Bytes())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
			if after := snapState(t, fresh); !bytes.Equal(before, after) {
				t.Fatal("failed restore changed the engine")
			}
		})
	}
	// The unedited writer reproduces SnapshotState byte for byte, so the
	// cases above differ from a valid stream only by their edit.
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "core.test")
	encodeSharedRings(enc, s, func(_, _ int, a int32, em []int32) (int32, []int32) { return a, em })
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), clean) {
		t.Fatal("test encoder drifted from SnapshotState's layout")
	}
}
