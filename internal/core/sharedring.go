package core

import (
	"encoding/binary"
	"time"

	"firehose/internal/postbin"
)

// This file is S_UniBin's storage: one window ring per connected component
// of the global author graph G, holding each emitted post once.
//
// For an instance k (a shared subscription component), "q covers p" factors
// into three instance-independent tests — Hamming ≤ λc, |Δt| ≤ λt and
// Similar(a_q, a_p) in the global G — and one membership test: k emitted q.
// An instance's author set is a connected induced subgraph of G, so it lies
// inside exactly one global component, and every post any of its instances
// ever compares against lives in that component's ring. The ring therefore
// stores each post once, beside the ascending ids of the instances that
// emitted it, and one newest-first scan decides every instance containing
// the post's author: a scan match covers the instances among its emitters,
// the scan stops once all of them are covered, and the rest emit.
//
// Pruning the ring by arrival time evicts exactly what each instance's own
// prune would: stream time is non-decreasing, so an entry older than the
// current cutoff is older than every instance's cutoff from now on.

// sharedRing is one global component's window: the coverage bin (SoA ring
// plus the optional SimHash index, exactly UniBin's) and, in step with it,
// the emitter arena. Entry i (0 = oldest) emitted for the instances listed
// in emitters.live()[starts[i]-emitBase : starts[i+1]-emitBase], the newest
// entry's list running to the arena's end.
//
// Each list is kept in its checkpoint encoding: a uvarint count, then the
// ascending ids as uvarint deltas (each id minus the previous, starting
// from -1). The live arena is therefore the ring's emitter section byte for
// byte, and a snapshot writes it with one copy.
type sharedRing struct {
	bin      covBin
	starts   fifo[uint64]
	emitters fifo[byte]
	// emitBase is the arena position of emitters.live()[0]; positions are
	// absolute and only grow, so starts survive the arena's compaction.
	emitBase uint64
	// peak is the ring's high-water entry count.
	peak int64
}

// len returns the number of stored posts.
func (r *sharedRing) len() int { return r.bin.soa.Len() }

// emitEnd returns the arena position the next pushed list starts at.
func (r *sharedRing) emitEnd() uint64 { return r.emitBase + uint64(len(r.emitters.live())) }

// emittersOf returns entry i's encoded emitter list (0 = oldest). The slice
// aliases the arena and is invalidated by the next push or prune.
func (r *sharedRing) emittersOf(i int) []byte {
	starts, arena := r.starts.live(), r.emitters.live()
	hi := len(arena)
	if i+1 < len(starts) {
		hi = int(starts[i+1] - r.emitBase)
	}
	return arena[starts[i]-r.emitBase : hi]
}

// prune evicts entries older than cutoff together with their emitter lists
// and returns the number of posts removed.
func (r *sharedRing) prune(cutoff int64) int {
	n := r.bin.pruneBefore(cutoff)
	if n == 0 {
		return 0
	}
	next := r.emitEnd()
	if starts := r.starts.live(); n < len(starts) {
		next = starts[n]
	}
	r.emitters.popFront(int(next - r.emitBase))
	r.emitBase = next
	r.starts.popFront(n)
	return n
}

// push stores a post with its encoded emitter list and reports whether the
// ring's peak rose.
func (r *sharedRing) push(t int64, fp uint64, author int32, emitters []byte) bool {
	r.bin.push(t, fp, author)
	r.starts.push(r.emitEnd())
	r.emitters.pushAll(emitters)
	if n := int64(r.len()); n > r.peak {
		r.peak = n
		return true
	}
	return false
}

// fifo is a slice-backed queue. push and pushAll append at the back and
// popFront advances the head; the dead prefix is reclaimed by sliding the
// live tail down when the appended values do not fit and the backing array
// is at least half dead, so all three are amortized O(1) per value and
// allocation-free once the array fits the live window.
// A burst's capacity is released once occupancy falls below a quarter.
type fifo[T any] struct {
	buf  []T
	head int
}

// live returns the queued values, oldest first. The slice aliases the
// queue and is invalidated by the next push or popFront.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

func (q *fifo[T]) push(v T) {
	q.reclaim(1)
	q.buf = append(q.buf, v)
}

// pushAll appends vs at the back in one copy.
func (q *fifo[T]) pushAll(vs []T) {
	q.reclaim(len(vs))
	q.buf = append(q.buf, vs...)
}

// reclaim slides the live tail down when n more values do not fit and at
// least half the array is dead.
func (q *fifo[T]) reclaim(n int) {
	if len(q.buf)+n > cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		k := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:k], 0
	}
}

func (q *fifo[T]) popFront(n int) {
	q.head += n
	live := len(q.buf) - q.head
	switch {
	case live == 0:
		q.buf, q.head = q.buf[:0], 0
	case cap(q.buf) > postbin.MinShrinkCap && live < cap(q.buf)/4:
		q.buf, q.head = append(make([]T, 0, cap(q.buf)/2), q.buf[q.head:]...), 0
	}
}

// buildRings creates one ring per global component that hosts an instance,
// in ascending component order (the canonical snapshot layout), and the
// dense author → ring table. Rings are keyed by the construction-time
// partition: a later SetGraph changes adjacency, never which ring a post
// belongs to — exactly as instances keep their construction-time author
// sets.
func (s *SharedMultiUser) buildRings() {
	params, indexed := s.th.indexParams(true)
	parts := s.g.Components()
	ringOf := make([]int32, len(parts))
	for _, inst := range s.comps {
		ringOf[s.g.ComponentOf(inst.authors[0])] = 1
	}
	for ci := range parts {
		if ringOf[ci] == 0 {
			ringOf[ci] = -1
			continue
		}
		ringOf[ci] = int32(len(s.rings))
		s.rings = append(s.rings, sharedRing{bin: newCovBin(params, indexed)})
	}
	s.authorRing = make([]int32, len(s.authorToComps))
	for a, insts := range s.authorToComps {
		s.authorRing[a] = -1
		if len(insts) > 0 {
			s.authorRing[a] = ringOf[s.g.ComponentOf(int32(a))]
		}
	}
	s.similar = make([]uint32, len(s.authorToComps))
}

// cover marks the candidates among one matching entry's emitters (its
// encoded list, decoded as it is walked) as covered and returns how many
// candidates remain open. Marks are idempotent, so an entry seen twice (the
// index may probe it through several tables) is harmless.
func (s *SharedMultiUser) cover(emitters []byte, e uint32, open int) int {
	// Skip the count: the slice ends where the list does.
	i := 1
	for emitters[i-1] >= 0x80 {
		i++
	}
	k := -1
	for i < len(emitters) {
		d, n := uint64(emitters[i]), 1
		if d >= 0x80 { // a longer delta, well formed: this package encoded it
			d, n = binary.Uvarint(emitters[i:])
		}
		i += n
		k += int(d)
		if s.stamp[k] == e {
			s.stamp[k] = e + 1
			if open--; open == 0 {
				return 0
			}
		}
	}
	return open
}

// offerRing is S_UniBin's Offer: prune the author's ring, stamp the post's
// instances, scan newest-first until every one is covered or the window is
// exhausted, emit for the rest and store the post once.
func (s *SharedMultiUser) offerRing(p *Post) []int32 {
	insts := s.authorToComps[p.Author]
	if len(insts) == 0 {
		return nil
	}
	defer s.c.Decisions.ObserveNSince(time.Now(), len(insts))
	r := &s.rings[s.authorRing[p.Author]]
	cutoff := p.Time - s.th.LambdaT
	if n := r.prune(cutoff); n > 0 {
		s.c.Evictions += uint64(n)
		s.live -= int64(n)
	}
	e := s.nextEpoch()
	for _, k := range insts {
		s.stamp[k] = e
	}
	// The author test Similar(p.Author, b) as one load: stamp the author's
	// closed neighbourhood in the current graph.
	s.similar[p.Author] = e
	for _, b := range s.g.Neighbors(p.Author) {
		s.similar[b] = e
	}
	fp := uint64(p.FP)
	open := len(insts)
	_, comparisons := r.bin.scan(fp, s.th.LambdaC, cutoff, func(i int, b int32) bool {
		if s.similar[b] != e {
			return false
		}
		open = s.cover(r.emittersOf(i), e, open)
		return open == 0
	})
	s.c.Comparisons += comparisons

	// Instance k is a candidate iff stamp[k] == e and covered iff
	// stamp[k] == e+1, so the candidates still stamped e emit.
	emitted := 0
	for _, k := range insts {
		if s.stamp[k] == e {
			emitted++
		}
	}
	s.c.Accepted += uint64(emitted)
	s.c.Rejected += uint64(len(insts) - emitted)
	if emitted > 0 {
		list := binary.AppendUvarint(s.emitList[:0], uint64(emitted))
		prev := int32(-1)
		for _, k := range insts {
			if s.stamp[k] == e {
				list = binary.AppendUvarint(list, uint64(k-prev))
				prev = k
			}
		}
		s.emitList = list
		if r.push(p.Time, fp, p.Author, list) {
			s.peak++
		}
		s.c.Insertions++
		s.live++
	}
	delivered := s.appendSubscribers(s.scratch[:0], p.Author, e, emitted)
	s.scratch = delivered
	if len(delivered) == 0 {
		return nil
	}
	return delivered
}
