package core

// This file implements checkpointing of the algorithms' in-memory state: the
// λt-window bins (SoA ring contents), the per-instance cost counters and the
// decision-latency histograms serialize to the internal/checkpoint format so
// a restarted service resumes with its coverage history intact — without it,
// a restart silently re-emits posts the SPSD contract calls redundant.
//
// Layout discipline: every engine writes a section tag first (validated on
// restore with Decoder.Expect), map-shaped state is written in sorted key
// order so identical state always produces identical bytes, and restore
// builds fresh structures that replace the engine's fields only after the
// whole section decodes cleanly. A failed single-instance restore therefore
// leaves that instance untouched; multi-instance solvers restore instance by
// instance and must be discarded wholesale on error (documented on
// MultiDiversifier restore methods).

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"firehose/internal/checkpoint"
	"firehose/internal/metrics"
	"firehose/internal/postbin"
	"firehose/internal/simindex"
)

// StateSnapshotter is implemented by diversifier engines whose state can be
// written to and restored from a checkpoint stream. SnapshotState appends
// the engine's sections to enc; RestoreState consumes the same sections and
// replaces the engine's state. Restore targets must be freshly constructed
// with the same parameters (algorithm, graph, subscriptions, thresholds) as
// the snapshotted engine — structural mismatches are detected and reported,
// threshold mismatches are the caller's contract (the public firehose layer
// fingerprints them).
type StateSnapshotter interface {
	SnapshotState(enc *checkpoint.Encoder) error
	RestoreState(dec *checkpoint.Decoder) error
}

// authorValidator returns the membership test restore uses on stored author
// ids. Both *authorsim.Graph and *authorsim.Induced implement Contains;
// validating matters because Similar indexes adjacency by id, so a corrupted
// author id that slipped into a bin would panic on a later Offer instead of
// failing the restore with a clean error.
func authorValidator(g AuthorGraph) func(int32) bool {
	type container interface{ Contains(int32) bool }
	if c, ok := g.(container); ok {
		return c.Contains
	}
	return func(a int32) bool { return a >= 0 }
}

// EncodeHistogram writes a latency histogram (fixed shared bucket layout).
// Exported for the stream layer, whose engines keep their own histograms
// (offer latency, queue wait) outside any Counters.
func EncodeHistogram(enc *checkpoint.Encoder, h *metrics.Histogram) {
	enc.Uvarint(metrics.NumBuckets)
	enc.Uvarint(h.Count)
	enc.Varint(h.SumNanos)
	for _, b := range h.Buckets {
		enc.Uvarint(b)
	}
}

// DecodeHistogram reads a latency histogram, validating internal consistency.
func DecodeHistogram(dec *checkpoint.Decoder) metrics.Histogram {
	var h metrics.Histogram
	if n := dec.Uvarint(); dec.Err() == nil && n != metrics.NumBuckets {
		dec.Failf("histogram has %d buckets, this build uses %d", n, metrics.NumBuckets)
	}
	h.Count = dec.Uvarint()
	h.SumNanos = dec.Varint()
	var inBuckets uint64
	for i := range h.Buckets {
		h.Buckets[i] = dec.Uvarint()
		inBuckets += h.Buckets[i]
	}
	if dec.Err() == nil {
		if h.SumNanos < 0 {
			dec.Failf("histogram sum is negative (%d)", h.SumNanos)
		}
		if inBuckets > h.Count {
			dec.Failf("histogram buckets hold %d observations but count is %d", inBuckets, h.Count)
		}
	}
	return h
}

// encodeCounters writes one instance's cost counters.
func encodeCounters(enc *checkpoint.Encoder, c *metrics.Counters) {
	enc.Uvarint(c.Comparisons)
	enc.Uvarint(c.Insertions)
	enc.Uvarint(c.Evictions)
	enc.Uvarint(c.Accepted)
	enc.Uvarint(c.Rejected)
	enc.Varint(c.StoredLive())
	enc.Varint(c.StoredPeak)
	EncodeHistogram(enc, &c.Decisions)
}

// decodeCounters reads one instance's cost counters, validating the
// stored-copy invariants before touching the target.
func decodeCounters(dec *checkpoint.Decoder) metrics.Counters {
	var c metrics.Counters
	c.Comparisons = dec.Uvarint()
	c.Insertions = dec.Uvarint()
	c.Evictions = dec.Uvarint()
	c.Accepted = dec.Uvarint()
	c.Rejected = dec.Uvarint()
	live := dec.Varint()
	peak := dec.Varint()
	c.Decisions = DecodeHistogram(dec)
	if dec.Err() != nil {
		return c
	}
	if live < 0 || peak < live {
		dec.Failf("stored-copy counters corrupt: live=%d peak=%d", live, peak)
		return c
	}
	c.SetStored(live, peak)
	return c
}

// encodeBin writes one SoA bin's live entries oldest-first: a count, then
// per entry the timestamp (varint), fingerprint (fixed 8 bytes) and author
// (varint). Ring geometry (capacity, head) is deliberately not serialized —
// it is an accident of arrival history, and rebuilding compactly keeps the
// format canonical: one logical bin state, one byte sequence. The section
// is encoded into buf, a scratch buffer the caller reuses across a
// snapshot's bins, and written with one Raw call; the grown buffer is
// returned.
func encodeBin(enc *checkpoint.Encoder, b *postbin.SoA, buf []byte) []byte {
	buf = binary.AppendUvarint(buf[:0], uint64(b.Len()))
	tOld, tNew := b.TimeSegments()
	fOld, fNew := b.FPSegments()
	aOld, aNew := b.AuthorSegments()
	for s := 0; s < 2; s++ {
		ts, fps, as := tOld, fOld, aOld
		if s == 1 {
			ts, fps, as = tNew, fNew, aNew
		}
		for i := range ts {
			buf = binary.AppendVarint(buf, ts[i])
			buf = binary.LittleEndian.AppendUint64(buf, fps[i])
			buf = binary.AppendVarint(buf, int64(as[i]))
		}
	}
	enc.Raw(buf)
	return buf
}

// decodeBin reads one bin into a fresh SoA, validating time monotonicity
// (postbin panics on out-of-order pushes — a corrupted stream must error
// instead) and author membership. Storage grows with the bytes actually
// read, so a corrupted count cannot drive a large allocation.
func decodeBin(dec *checkpoint.Decoder, validAuthor func(int32) bool) postbin.SoA {
	n := dec.Len("bin entries", checkpoint.MaxElems)
	var b postbin.SoA
	last := int64(math.MinInt64)
	for i := 0; i < n && dec.Err() == nil; i++ {
		t := dec.Varint()
		fp := dec.U64()
		a := dec.Varint()
		if dec.Err() != nil {
			break
		}
		if t < last {
			dec.Failf("bin entry %d out of time order (%d after %d)", i, t, last)
			break
		}
		if a < math.MinInt32 || a > math.MaxInt32 || !validAuthor(int32(a)) {
			dec.Failf("bin entry %d has invalid author %d", i, a)
			break
		}
		last = t
		b.Push(t, fp, int32(a))
	}
	return b
}

// SnapshotState implements StateSnapshotter: the single window bin plus the
// counters. Only the ring is serialized — the SimHash index (when the policy
// has one) is rebuilt from it on restore, so snapshot bytes are identical
// under every index policy and a snapshot taken with one policy restores
// under another.
func (u *UniBin) SnapshotState(enc *checkpoint.Encoder) error {
	enc.String("unibin")
	encodeBin(enc, &u.bin.soa, nil)
	encodeCounters(enc, &u.c)
	return enc.Err()
}

// RestoreState implements StateSnapshotter. On error the engine is
// untouched.
func (u *UniBin) RestoreState(dec *checkpoint.Decoder) error {
	dec.Expect("unibin")
	soa := decodeBin(dec, authorValidator(u.g))
	c := decodeCounters(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	params, indexed := u.th.indexParams(true)
	u.bin, u.c = newCovBinFromSoA(soa, params, indexed), c
	return nil
}

// SnapshotState implements StateSnapshotter: the per-author bins in sorted
// author order (canonical bytes), then the counters.
func (nb *NeighborBin) SnapshotState(enc *checkpoint.Encoder) error {
	enc.String("neighborbin")
	authors := make([]int32, 0, len(nb.bins))
	for a := range nb.bins {
		authors = append(authors, a)
	}
	slices.Sort(authors)
	enc.Uvarint(uint64(len(authors)))
	var buf []byte
	for _, a := range authors {
		enc.Varint(int64(a))
		buf = encodeBin(enc, &nb.bins[a].soa, buf)
	}
	encodeCounters(enc, &nb.c)
	return enc.Err()
}

// RestoreState implements StateSnapshotter. On error the engine is
// untouched.
func (nb *NeighborBin) RestoreState(dec *checkpoint.Decoder) error {
	dec.Expect("neighborbin")
	valid := authorValidator(nb.g)
	n := dec.Len("author bins", checkpoint.MaxElems)
	bins := make(map[int32]*covBin)
	last := int64(math.MinInt64)
	for i := 0; i < n && dec.Err() == nil; i++ {
		a := dec.Varint()
		if dec.Err() != nil {
			break
		}
		if a <= last || a < math.MinInt32 || a > math.MaxInt32 || !valid(int32(a)) {
			dec.Failf("author bin %d has invalid or out-of-order author %d", i, a)
			break
		}
		last = a
		b := newCovBinFromSoA(decodeBin(dec, valid), nb.idxParams, nb.indexed)
		bins[int32(a)] = &b
	}
	c := decodeCounters(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	nb.bins, nb.c = bins, c
	return nil
}

// SnapshotState implements StateSnapshotter: the populated clique bins as
// (clique id, bin) pairs in ascending id order, then the counters. The
// clique cover itself is not serialized — it is a pure function of the
// author graph the engine was constructed with.
func (cb *CliqueBin) SnapshotState(enc *checkpoint.Encoder) error {
	enc.String("cliquebin")
	enc.Uvarint(uint64(len(cb.bins)))
	populated := 0
	for _, b := range cb.bins {
		if b != nil {
			populated++
		}
	}
	enc.Uvarint(uint64(populated))
	var buf []byte
	for ci, b := range cb.bins {
		if b != nil {
			enc.Uvarint(uint64(ci))
			buf = encodeBin(enc, &b.soa, buf)
		}
	}
	encodeCounters(enc, &cb.c)
	return enc.Err()
}

// RestoreState implements StateSnapshotter. The snapshot's clique count must
// match this engine's cover — a mismatch means the engine was built over a
// different graph or subscription set. On error the engine is untouched.
func (cb *CliqueBin) RestoreState(dec *checkpoint.Decoder) error {
	dec.Expect("cliquebin")
	if n := dec.Len("cliques", checkpoint.MaxElems); dec.Err() == nil && n != len(cb.bins) {
		dec.Failf("snapshot has %d cliques, engine's cover has %d (different graph or subscriptions)", n, len(cb.bins))
	}
	populated := dec.Len("populated clique bins", max(len(cb.bins), 1))
	bins := make([]*covBin, len(cb.bins))
	lastCi := -1
	for i := 0; i < populated && dec.Err() == nil; i++ {
		ci := dec.Len("clique id", checkpoint.MaxElems)
		if dec.Err() != nil {
			break
		}
		if ci <= lastCi || ci >= len(bins) {
			dec.Failf("populated bin %d has invalid or out-of-order clique id %d", i, ci)
			break
		}
		lastCi = ci
		b := newCovBinFromSoA(decodeBin(dec, authorValidatorFromCover(cb)), cb.idxParams, cb.indexed)
		bins[ci] = &b
	}
	c := decodeCounters(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	cb.bins, cb.c = bins, c
	return nil
}

// authorValidatorFromCover validates restored authors against the clique
// cover: an author is plausible iff the cover knows it (CliqueBin only ever
// stores posts of covered authors).
func authorValidatorFromCover(cb *CliqueBin) func(int32) bool {
	return func(a int32) bool { return len(cb.cover.CliquesOf(a)) > 0 }
}

// snapshotInstance snapshots one multi-user instance, failing with a
// descriptive error should an algorithm without checkpoint support appear
// (every shipped algorithm supports it).
func snapshotInstance(enc *checkpoint.Encoder, d Diversifier) error {
	s, ok := d.(StateSnapshotter)
	if !ok {
		return fmt.Errorf("core: algorithm %s does not support checkpointing", d.Name())
	}
	return s.SnapshotState(enc)
}

// restoreInstance restores one instance in place.
func restoreInstance(dec *checkpoint.Decoder, d Diversifier) error {
	s, ok := d.(StateSnapshotter)
	if !ok {
		return fmt.Errorf("core: algorithm %s does not support checkpointing", d.Name())
	}
	return s.RestoreState(dec)
}

// SnapshotState implements StateSnapshotter for every layout: the structural
// guard (every instance's author and user counts, in construction order,
// which is deterministic in the subscription list), then the state. S_UniBin
// writes its rings in ring order, then one counters block; every other layout
// writes each instance's section in instance order. Per-user thresholds are
// construction parameters, fingerprinted by the public layer, not state.
func (s *SharedMultiUser) SnapshotState(enc *checkpoint.Encoder) error {
	enc.String("sharedmultiuser")
	enc.Uvarint(uint64(len(s.comps)))
	for _, comp := range s.comps {
		enc.Uvarint(uint64(len(comp.authors)))
		enc.Uvarint(uint64(comp.users))
	}
	if s.ring {
		enc.Uvarint(uint64(len(s.rings)))
		var buf []byte
		for i := range s.rings {
			buf = encodeRing(enc, &s.rings[i], buf)
		}
		encodeCounters(enc, s.Counters())
		return enc.Err()
	}
	for _, comp := range s.comps {
		if err := snapshotInstance(enc, comp.div); err != nil {
			return err
		}
	}
	return enc.Err()
}

// RestoreState implements StateSnapshotter. S_UniBin decodes and validates
// the whole section before replacing anything, so on error it is untouched;
// the other layouts restore instance by instance and must be discarded on
// error.
func (s *SharedMultiUser) RestoreState(dec *checkpoint.Decoder) error {
	dec.Expect("sharedmultiuser")
	if n := dec.Len("instances", checkpoint.MaxElems); dec.Err() == nil && n != len(s.comps) {
		dec.Failf("snapshot has %d instances, engine has %d (different users or subscriptions)", n, len(s.comps))
	}
	for ci := 0; ci < len(s.comps) && dec.Err() == nil; ci++ {
		inst := &s.comps[ci]
		na := dec.Len("instance authors", checkpoint.MaxElems)
		nu := dec.Len("instance users", checkpoint.MaxElems)
		if dec.Err() == nil && (na != len(inst.authors) || nu != int(inst.users)) {
			dec.Failf("instance %d shape mismatch: snapshot %d authors/%d users, engine %d/%d",
				ci, na, nu, len(inst.authors), inst.users)
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if s.ring {
		if n := dec.Len("rings", checkpoint.MaxElems); dec.Err() == nil && n != len(s.rings) {
			dec.Failf("snapshot has %d rings, engine has %d (different graph or subscriptions)", n, len(s.rings))
		}
		params, indexed := s.th.indexParams(true)
		rings := make([]sharedRing, 0, len(s.rings))
		var live, peak int64
		for ri := 0; ri < len(s.rings) && dec.Err() == nil; ri++ {
			r := decodeRing(dec, s, int32(ri), params, indexed)
			live, peak = live+int64(r.len()), peak+r.peak
			rings = append(rings, r)
		}
		c := decodeCounters(dec)
		if dec.Err() == nil && (c.StoredLive() != live || c.StoredPeak != peak) {
			dec.Failf("stored-copy counters (live %d, peak %d) disagree with the rings (live %d, peak %d)",
				c.StoredLive(), c.StoredPeak, live, peak)
		}
		if err := dec.Err(); err != nil {
			return err
		}
		c.SetStored(0, 0) // kept in s.live and s.peak
		s.rings, s.c, s.live, s.peak = rings, c, live, peak
		return nil
	}
	for _, comp := range s.comps {
		if err := restoreInstance(dec, comp.div); err != nil {
			return err
		}
	}
	return dec.Err()
}

// encodeRing writes one S_UniBin ring: its bin (through buf, as
// encodeBin), then per entry (oldest first) the emitting instances as a
// count plus ascending delta varints (each id minus the previous, starting
// from -1), then the ring's peak. The emitter section is the live arena as
// it stands, which already holds exactly these bytes.
func encodeRing(enc *checkpoint.Encoder, r *sharedRing, buf []byte) []byte {
	buf = encodeBin(enc, &r.bin.soa, buf)
	enc.Raw(r.emitters.live())
	enc.Varint(r.peak)
	return buf
}

// decodeRing reads ring ri, validating that every entry's author belongs to
// the ring and that its emitter list is non-empty, strictly ascending, in
// range and made of instances containing the author — the invariants the
// scan relies on. Storage grows with the bytes actually read.
func decodeRing(dec *checkpoint.Decoder, s *SharedMultiUser, ri int32, params simindex.Params, indexed bool) sharedRing {
	soa := decodeBin(dec, func(a int32) bool {
		return a >= 0 && int(a) < len(s.authorRing) && s.authorRing[a] == ri
	})
	aOld, aNew := soa.AuthorSegments()
	var r sharedRing
	var list []byte
	for i := 0; i < soa.Len() && dec.Err() == nil; i++ {
		var author int32
		if i < len(aOld) {
			author = aOld[i]
		} else {
			author = aNew[i-len(aOld)]
		}
		n := dec.Len("entry emitters", len(s.comps))
		if dec.Err() == nil && n == 0 {
			dec.Failf("ring %d entry %d has no emitting instance", ri, i)
		}
		list = binary.AppendUvarint(list[:0], uint64(n))
		prev := int64(-1)
		for j := 0; j < n && dec.Err() == nil; j++ {
			k := prev + int64(dec.Uvarint())
			if dec.Err() != nil {
				break
			}
			if k <= prev || k >= int64(len(s.comps)) {
				dec.Failf("ring %d entry %d: emitter %d after %d is out of order or outside [0,%d)", ri, i, k, prev, len(s.comps))
				break
			}
			if _, found := slices.BinarySearch(s.comps[k].authors, author); !found {
				dec.Failf("ring %d entry %d: emitter %d does not contain author %d", ri, i, k, author)
				break
			}
			list = binary.AppendUvarint(list, uint64(k-prev))
			prev = k
		}
		r.starts.push(r.emitEnd())
		r.emitters.pushAll(list)
	}
	r.peak = dec.Varint()
	if dec.Err() == nil && (r.peak < int64(soa.Len()) || r.peak > checkpoint.MaxElems) {
		dec.Failf("ring %d peak %d is below its %d live entries or implausible", ri, r.peak, soa.Len())
	}
	r.bin = newCovBinFromSoA(soa, params, indexed)
	return r
}
