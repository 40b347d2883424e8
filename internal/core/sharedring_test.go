package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"firehose/internal/checkpoint"
	"firehose/internal/simhash"
)

// TestFifo pins the queue the emitter arena and entry starts live in:
// values come out in push order across the compaction and shrink paths.
func TestFifo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q fifo[int]
	var model []int
	next := 0
	for step := 0; step < 20_000; step++ {
		// Bursts of pushes, then drains, so the array grows, compacts and
		// shrinks.
		if rng.Intn(100) < 55+40*((step/2000)%2) {
			q.push(next)
			model = append(model, next)
			next++
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
		prefix = binary.AppendUvarint(prefix, uint64(len(comp.users)))
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
