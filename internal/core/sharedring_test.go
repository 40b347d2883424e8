package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/simhash"
)

// TestFifo pins the queue the emitter arena and entry starts live in:
// values come out in push order across the compaction and shrink paths,
// whether they went in one by one or in runs.
func TestFifo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q fifo[int]
	var model []int
	next := 0
	for step := 0; step < 20_000; step++ {
		// Bursts of pushes, then drains, so the array grows, compacts and
		// shrinks.
		if rng.Intn(100) < 55+40*((step/2000)%2) {
			// One value by push or a run of them by pushAll, as the
			// entry starts and the emitter lists are appended.
			var run []int
			for n := 1 + rng.Intn(2)*rng.Intn(6); n > 0; n-- {
				run = append(run, next)
				next++
			}
			if len(run) == 1 {
				q.push(run[0])
			} else {
				q.pushAll(run)
			}
			model = append(model, run...)
		} else if len(model) > 0 {
			n := 1 + rng.Intn(len(model))
			q.popFront(n)
			model = model[n:]
		}
		if !slices.Equal(q.live(), model) {
			t.Fatalf("step %d: live %v, want %v", step, q.live(), model)
		}
	}
}

// sharedFuzzFixture builds a small S_UniBin with stored state and returns
// it with a builder for identically configured fresh solvers.
func sharedFuzzFixture(tb testing.TB) (*SharedMultiUser, func() *SharedMultiUser) {
	tb.Helper()
	rng := rand.New(rand.NewSource(8))
	g, posts, subs := clusteredScenario(rng, 120)
	th := Thresholds{LambdaC: 6, LambdaT: 600, LambdaA: 0.7}
	mk := func() *SharedMultiUser {
		s, err := NewSharedMultiUser(AlgUniBin, g, subs, th)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	s := mk()
	for _, p := range posts {
		s.Offer(p)
	}
	return s, mk
}

// FuzzSharedRestore feeds arbitrary bytes to S_UniBin's restore after a
// valid prefix — checkpoint header, section tag, structural guard and ring
// count — so the fuzzer spends its time inside the ring and emitter-list
// decoding, with no checksum in the way (RestoreState runs before the
// trailer is verified). Restore must fail cleanly or succeed; a solver that
// restored must keep deciding, snapshotting and reporting without panics.
func FuzzSharedRestore(f *testing.F) {
	s, mk := sharedFuzzFixture(f)
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "core.fuzz")
	if err := s.SnapshotState(enc); err != nil {
		f.Fatal(err)
	}
	if err := enc.Finish(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	prefix := append([]byte("FHCK"), binary.AppendUvarint(nil, checkpoint.Version)...)
	for _, str := range []string{"core.fuzz", "sharedmultiuser"} {
		prefix = binary.AppendUvarint(prefix, uint64(len(str)))
		prefix = append(prefix, str...)
	}
	prefix = binary.AppendUvarint(prefix, uint64(len(s.comps)))
	for _, comp := range s.comps {
		prefix = binary.AppendUvarint(prefix, uint64(len(comp.authors)))
		prefix = binary.AppendUvarint(prefix, uint64(comp.users))
	}
	prefix = binary.AppendUvarint(prefix, uint64(len(s.rings)))
	if !bytes.HasPrefix(valid, prefix) {
		f.Fatal("fuzz prefix drifted from SnapshotState's layout")
	}
	body := valid[len(prefix):]
	f.Add(body)
	f.Add(body[:len(body)/2])
	flipped := bytes.Clone(body)
	flipped[len(flipped)/3] ^= 0x04
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := checkpoint.NewDecoder(bytes.NewReader(append(slices.Clone(prefix), raw...)))
		if err != nil {
			t.Fatalf("valid prefix rejected: %v", err)
		}
		fresh := mk()
		rerr := fresh.RestoreState(dec)
		if bytes.Equal(raw, body) && rerr != nil {
			t.Fatalf("valid snapshot body rejected: %v", rerr)
		}
		// Restored or untouched, the solver must keep working. Posts start
		// at the newest restored time: a restored ring may hold any
		// validated, monotone times, and the stream never goes back.
		start := int64(0)
		for i := range fresh.rings {
			if t, ok := fresh.rings[i].bin.soa.NewestTime(); ok {
				start = max(start, t)
			}
		}
		for i := 0; i < 40 && start <= math.MaxInt64-40; i++ {
			fresh.Offer(&Post{
				ID:     uint64(i + 1),
				Author: int32(i % len(fresh.authorToComps)),
				Time:   start + int64(i),
				FP:     simhash.Fingerprint(uint64(i%3) * 0x9E3779B97F4A7C15),
			})
		}
		fresh.Counters()
		var out bytes.Buffer
		enc := checkpoint.NewEncoder(&out, "core.fuzz")
		if err := fresh.SnapshotState(enc); err != nil {
			t.Fatalf("snapshot after restore (err %v): %v", rerr, err)
		}
	})
}

// TestSharedRingWideEmitterDeltas puts one author's instances more than
// 2^14 ids apart, so the emitter arena holds three-byte deltas (a bench
// graph's widest is two bytes). Decisions must still equal M_UniBin's, the
// arena must still be the bytes the one-id-at-a-time test writer produces,
// and a snapshot must restore to the same bytes and the same suffix
// decisions.
func TestSharedRingWideEmitterDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Authors 0-3 are one cluster; every later author is isolated and
	// followed alone by one filler user, whose instance pushes the ids of
	// the cluster's later instances past 2^14.
	const cluster, fillers = 4, 1<<14 + 8
	nAuthors := cluster + fillers
	g := authorsim.NewGraph(nAuthors, []authorsim.SimPair{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}, {A: 0, B: 2}}, 0.7)
	subs := [][]int32{{0}, {1, 2}, {3}}
	for a := cluster; a < nAuthors; a++ {
		subs = append(subs, []int32{int32(a)})
	}
	subs = append(subs, []int32{0, 1}, []int32{0, 1, 2, 3}, []int32{2, 3}, []int32{1})

	bases := make([]simhash.Fingerprint, 4)
	for i := range bases {
		bases[i] = simhash.Fingerprint(rng.Uint64())
	}
	posts := make([]*Post, 3000)
	now := int64(0)
	for i := range posts {
		now += int64(rng.Intn(40))
		fp := bases[rng.Intn(len(bases))]
		for k := rng.Intn(8); k > 0; k-- {
			fp ^= 1 << uint(rng.Intn(64))
		}
		author := int32(rng.Intn(cluster))
		if rng.Intn(5) == 0 {
			author = int32(cluster + rng.Intn(fillers))
		}
		posts[i] = &Post{ID: uint64(i + 1), Author: author, Time: now, FP: fp}
	}
	th := Thresholds{LambdaC: 6, LambdaT: 900, LambdaA: 0.7}
	mk := func(build func(Algorithm, *authorsim.Graph, [][]int32, Thresholds) (*SharedMultiUser, error)) *SharedMultiUser {
		s, err := build(AlgUniBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	m, s := mk(NewMultiUser), mk(NewSharedMultiUser)
	half := len(posts) / 2
	mt, st := timelinesOf(m, posts[:half], len(subs)), timelinesOf(s, posts[:half], len(subs))
	for u := range mt {
		if !slices.Equal(mt[u], st[u]) {
			t.Fatalf("prefix, user %d: M and S timelines differ (%d and %d posts)", u, len(mt[u]), len(st[u]))
		}
	}

	wide := false
	for ri := range s.rings {
		for i := 0; i < s.rings[ri].len(); i++ {
			prev := int32(-1)
			for _, k := range decodeEmitters(s.rings[ri].emittersOf(i)) {
				wide = wide || k-prev >= 1<<14
				prev = k
			}
		}
	}
	if !wide {
		t.Fatal("degenerate scenario: no stored emitter delta reaches 2^14")
	}
	if c := s.Counters(); c.Rejected == 0 {
		t.Fatal("degenerate scenario: no post was covered")
	}

	raw := snapState(t, s)
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "core.test")
	encodeSharedRings(enc, s, func(_, _ int, a int32, em []int32) (int32, []int32) { return a, em })
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("SnapshotState's bytes differ from the one-id-at-a-time writer's")
	}
	restored := mk(NewSharedMultiUser)
	if err := restoreState(restored, raw); err != nil {
		t.Fatal(err)
	}
	if again := snapState(t, restored); !bytes.Equal(again, raw) {
		t.Fatal("snapshot → restore → snapshot changed the bytes")
	}

	mt = timelinesOf(m, posts[half:], len(subs))
	st = timelinesOf(s, posts[half:], len(subs))
	rt := timelinesOf(restored, posts[half:], len(subs))
	for u := range mt {
		if !slices.Equal(mt[u], st[u]) || !slices.Equal(st[u], rt[u]) {
			t.Fatalf("suffix, user %d: M, S and restored S timelines differ (%d, %d and %d posts)", u, len(mt[u]), len(st[u]), len(rt[u]))
		}
	}
}
