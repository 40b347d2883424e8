package postbin

import "fmt"

// SoA is the hot-path variant of Bin, specialized for the decision loop's
// scan payload: a structure-of-arrays circular buffer holding SimHash
// fingerprints, author ids and timestamps in three parallel slices. The
// layout exists for one reason — the λt-window scan of Section 4 is the
// paper's entire cost model, and it touches every fingerprint but only the
// authors of content-similar candidates, so packing fingerprints contiguously
// (instead of interleaving them with timestamps and values as Bin's
// array-of-structs does) lets the scan stream through cache lines that are
// 100% fingerprint.
//
// Capacity is always a power of two and positions are reduced with a mask
// instead of a modulo, so the per-element cost of the scan is one AND, one
// load and one compare. Iteration is through Cursor, a closure-free value
// type the compiler can keep in registers.
//
// The semantics are exactly Bin's (property-tested against it): entries are
// pushed in non-decreasing time order, scanned newest-first and pruned from
// the old end. A burst that grows the buffer is released again by
// PruneBefore, which halves the capacity whenever occupancy falls below a
// quarter (never below MinShrinkCap).
//
// The zero value is an empty bin, so owners embed a SoA by value: a solver
// that keeps tens of bins per arriving post then reaches each ring header
// without a pointer hop. The header also caches the oldest and newest
// timestamps, so PruneBefore on a bin with nothing to evict — the common case
// per bin per post — reads no ring memory at all.
type SoA struct {
	head    int // index of oldest entry
	count   int
	mask    int   // len(fps) - 1; len is a power of two
	oldest  int64 // times[head], valid when count > 0
	last    int64 // time of most recent entry, valid when count > 0
	fps     []uint64
	authors []int32
	times   []int64
}

// NewSoA returns an empty bin. The first Push allocates MinShrinkCap capacity.
func NewSoA() *SoA {
	return &SoA{}
}

// Len returns the number of entries currently stored.
func (b *SoA) Len() int { return b.count }

// Cap returns the current capacity of the circular buffer.
func (b *SoA) Cap() int { return len(b.fps) }

// Push appends an entry. Timestamps must be non-decreasing; Push panics
// otherwise, because out-of-order insertion would silently break the
// windowed scan semantics.
func (b *SoA) Push(t int64, fp uint64, author int32) {
	if b.count > 0 && t < b.last {
		panic(fmt.Sprintf("postbin: out-of-order push: %d after %d", t, b.last))
	}
	if b.count == len(b.fps) {
		b.resize(max(MinShrinkCap, 2*len(b.fps)))
	}
	idx := (b.head + b.count) & b.mask
	b.fps[idx] = fp
	b.authors[idx] = author
	b.times[idx] = t
	if b.count == 0 {
		b.oldest = t
	}
	b.count++
	b.last = t
}

// resize moves the live entries into fresh parallel slices of capacity
// newCap (a power of two >= count) and rebases head to 0.
func (b *SoA) resize(newCap int) {
	fps := make([]uint64, newCap)
	authors := make([]int32, newCap)
	times := make([]int64, newCap)
	for i := 0; i < b.count; i++ {
		idx := (b.head + i) & b.mask
		fps[i] = b.fps[idx]
		authors[i] = b.authors[idx]
		times[i] = b.times[idx]
	}
	b.fps, b.authors, b.times = fps, authors, times
	b.head = 0
	b.mask = newCap - 1
}

// PruneBefore removes all entries with time < cutoff from the old end and
// returns the number removed. When occupancy drops below a quarter of the
// capacity it halves the buffer (floor MinShrinkCap), so the peak footprint
// of a traffic burst is not pinned for the rest of the stream.
func (b *SoA) PruneBefore(cutoff int64) int {
	removed := 0
	for b.count > 0 && b.oldest < cutoff {
		b.head = (b.head + 1) & b.mask
		b.count--
		removed++
		if b.count > 0 {
			b.oldest = b.times[b.head]
		}
	}
	if b.count == 0 {
		b.head = 0
	}
	if c := len(b.fps); c > MinShrinkCap && b.count < c/4 {
		b.resize(max(MinShrinkCap, c/2))
	}
	return removed
}

// OldestTime returns the timestamp of the oldest entry, or ok=false when the
// bin is empty.
func (b *SoA) OldestTime() (t int64, ok bool) {
	if b.count == 0 {
		return 0, false
	}
	return b.oldest, true
}

// NewestTime returns the timestamp of the most recent entry, or ok=false
// when the bin is empty.
func (b *SoA) NewestTime() (t int64, ok bool) {
	if b.count == 0 {
		return 0, false
	}
	return b.last, true
}

// FPSegments returns the stored fingerprints as up to two contiguous slices:
// concatenated, older then newer is the oldest-to-newest order (newer is nil
// while the buffer hasn't wrapped). The slices alias the bin's storage and
// are invalidated by any Push or PruneBefore — they exist so a scan-bound
// caller can run a tight backward loop over raw memory instead of paying the
// cursor's per-element index arithmetic.
//
// Invalidation contract (audited; see TestSegmentsInvalidationContract): a
// mutation may leave stale segments aliasing live storage (an in-place Push
// or head advance — the stale view then shows a mix of old and new entries)
// or may move the live entries to a fresh backing array entirely (a growth
// resize, or the shrink a PruneBefore triggers when occupancy falls below a
// quarter — the stale view then shows only pre-mutation data and writes
// through it are lost). Neither case faults, which is exactly why the hazard
// is easy to miss: stale segments read plausible values. The only correct
// use is acquire → scan → discard, re-acquiring after every mutation, and
// never acquiring FP/Author/Time segments across a mutation (a PruneBefore
// between two accessors can desynchronize their indexing).
func (b *SoA) FPSegments() (older, newer []uint64) {
	end := b.head + b.count
	if end <= len(b.fps) {
		return b.fps[b.head:end], nil
	}
	return b.fps[b.head:], b.fps[:end&b.mask]
}

// AuthorSegments returns the stored author ids segmented exactly like
// FPSegments: older[i] and newer[i] are the authors of the same entries as
// the fingerprint segments' older[i] and newer[i].
func (b *SoA) AuthorSegments() (older, newer []int32) {
	end := b.head + b.count
	if end <= len(b.authors) {
		return b.authors[b.head:end], nil
	}
	return b.authors[b.head:], b.authors[:end&b.mask]
}

// TimeSegments returns the stored timestamps segmented exactly like
// FPSegments: older[i] and newer[i] are the timestamps of the same entries as
// the fingerprint segments' older[i] and newer[i]. Like the other segment
// accessors the slices alias the bin's storage and are invalidated by any
// Push or PruneBefore; checkpoint writers walk them oldest-to-newest.
func (b *SoA) TimeSegments() (older, newer []int64) {
	end := b.head + b.count
	if end <= len(b.times) {
		return b.times[b.head:end], nil
	}
	return b.times[b.head:], b.times[:end&b.mask]
}

// Scan returns a newest-first cursor over the live entries. The cursor is a
// value; iterating allocates nothing:
//
//	for cur := b.Scan(); cur.Next(); {
//		use(cur.FP(), cur.Author(), cur.Time())
//	}
//
// The cursor is invalidated by any Push or PruneBefore on the bin.
func (b *SoA) Scan() Cursor {
	return Cursor{bin: b, remaining: b.count}
}

// Cursor iterates a SoA bin newest-first without closures. Obtain one from
// Scan; call Next before each access.
type Cursor struct {
	bin       *SoA
	remaining int
	idx       int
}

// Next advances to the next (older) entry, reporting whether one exists.
func (c *Cursor) Next() bool {
	if c.remaining == 0 {
		return false
	}
	c.remaining--
	c.idx = (c.bin.head + c.remaining) & c.bin.mask
	return true
}

// FP returns the fingerprint at the cursor.
func (c *Cursor) FP() uint64 { return c.bin.fps[c.idx] }

// Author returns the author id at the cursor.
func (c *Cursor) Author() int32 { return c.bin.authors[c.idx] }

// Time returns the timestamp at the cursor.
func (c *Cursor) Time() int64 { return c.bin.times[c.idx] }
