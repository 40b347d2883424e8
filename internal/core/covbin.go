package core

import (
	"firehose/internal/postbin"
	"firehose/internal/simhash"
	"firehose/internal/simindex"
)

// covBin is the coverage-lookup layer shared by the three scan algorithms:
// a structure-of-arrays window ring (postbin.SoA) optionally paired with a
// Manku block-permutation SimHash index (internal/simindex) kept
// incrementally in sync with it. When the Thresholds' index policy resolves
// to a feasible layout at λc, the content dimension is answered by probing
// the index's Hamming-plausible candidate buckets instead of scanning the
// whole λt window; otherwise the exact scan runs over the ring's raw
// fingerprint segments through the batched postbin.NextWithin kernel. Both
// paths answer the identical coverage predicate (property-tested against
// each other and against the Reference* executable spec) — only the lookup
// mechanics and the meaning of the comparison count differ: the exact path
// counts window entries visited, the index path counts bucket entries
// probed.
//
// The index holds one logical entry per ring entry, keyed by a per-bin
// monotone sequence number: the ring's oldest entry carries seq base, its
// i-th oldest base+i. Eviction removes in exactly ring order, so index
// removals hit the front of each time-ordered bucket, and the recycled
// bucket slices make the steady state allocation-free. The stored-copy and
// insertion counters deliberately track logical ring entries only — the
// index's table copies are an acceleration structure, not part of the
// paper's RAM model — so every counter identity holds unchanged under any
// policy.
//
// A covBin is held by value where its owner has exactly one (UniBin, the
// adaptive controller's per-user history) and the ring is embedded by value
// in turn, so a component instance is one object, not three. The zero value
// is an empty exact-scan bin.
type covBin struct {
	soa postbin.SoA
	idx *simindex.Index // nil on the exact-scan path
	// base is the sequence number of the ring's oldest entry; next is the
	// sequence the next push takes.
	base, next uint64
}

// newCovBin builds a bin; indexed selects the index layout resolved by the
// caller's policy (Thresholds.indexParams).
func newCovBin(params simindex.Params, indexed bool) covBin {
	var b covBin
	if indexed {
		idx, err := simindex.New(params)
		if err != nil {
			// The params came from simindex.AutoParams, which only returns
			// layouts New accepts.
			panic("core: unreachable: infeasible index params slipped past validation: " + err.Error())
		}
		b.idx = idx
	}
	return b
}

// newCovBinFromSoA wraps a restored ring, rebuilding the index (when the
// policy asks for one) by re-inserting every live entry — the snapshot
// format stays index-free and policy-independent.
func newCovBinFromSoA(soa postbin.SoA, params simindex.Params, indexed bool) covBin {
	b := covBin{soa: soa}
	if !indexed {
		return b
	}
	idx, err := simindex.New(params)
	if err != nil {
		panic("core: unreachable: infeasible index params slipped past validation: " + err.Error())
	}
	b.idx = idx
	tOld, tNew := soa.TimeSegments()
	fOld, fNew := soa.FPSegments()
	aOld, aNew := soa.AuthorSegments()
	for s := 0; s < 2; s++ {
		ts, fps, as := tOld, fOld, aOld
		if s == 1 {
			ts, fps, as = tNew, fNew, aNew
		}
		for i := range ts {
			idx.Add(simindex.Entry{FP: simhash.Fingerprint(fps[i]), ID: b.next, Aux: as[i], Time: ts[i]})
			b.next++
		}
	}
	return b
}

// push appends an entry to the ring and, on the indexed path, to the index.
func (b *covBin) push(t int64, fp uint64, author int32) {
	b.soa.Push(t, fp, author)
	if b.idx != nil {
		b.idx.Add(simindex.Entry{FP: simhash.Fingerprint(fp), ID: b.next, Aux: author, Time: t})
	}
	b.next++
}

// pruneBefore evicts entries older than cutoff from the ring and the index
// and returns the number removed.
func (b *covBin) pruneBefore(cutoff int64) int {
	if b.idx != nil {
		if t, ok := b.soa.OldestTime(); ok && t < cutoff {
			b.removeExpired(cutoff)
		}
	}
	n := b.soa.PruneBefore(cutoff)
	b.base += uint64(n)
	return n
}

// removeExpired walks the ring's segments oldest-first and removes every
// expired entry from the index. It runs before SoA.PruneBefore, while the
// segments still describe the pre-prune ring (the accessors are invalidated
// by the prune — see their aliasing contract).
func (b *covBin) removeExpired(cutoff int64) {
	tOld, tNew := b.soa.TimeSegments()
	fOld, fNew := b.soa.FPSegments()
	seq := b.base
	for s := 0; s < 2; s++ {
		ts, fps := tOld, fOld
		if s == 1 {
			ts, fps = tNew, fNew
		}
		for i := range ts {
			if ts[i] >= cutoff {
				return
			}
			b.idx.Remove(simhash.Fingerprint(fps[i]), seq)
			seq++
		}
	}
}

// scan is the coverage lookup of every bin: newest-first over the window,
// it finds the entries within Hamming distance lc of fp and hands each one's
// ring index (0 = oldest) and author to hit, which applies whatever further
// test the algorithm needs and returns true to stop the scan — NeighborBin
// and CliqueBin stop at the first (their bin layout already implies the
// author test), UniBin at the first author-similar entry, and S_UniBin's
// rings once every instance deciding the post is covered. The results are
// whether hit stopped the scan and the comparison count: entries visited on
// the exact path, bucket entries probed on the index path. On the index path
// one entry may reach hit more than once (it can sit in several probed
// tables), so hit must tolerate repeats.
func (b *covBin) scan(fp uint64, lc int, cutoff int64, hit func(i int, author int32) bool) (bool, uint64) {
	if b.idx != nil {
		stopped, probes := b.idx.Covered(simhash.Fingerprint(fp), cutoff, func(e simindex.Entry) bool {
			return hit(int(e.ID-b.base), e.Aux)
		})
		return stopped, uint64(probes)
	}
	comparisons := uint64(0)
	fpOld, fpNew := b.soa.FPSegments()
	auOld, auNew := b.soa.AuthorSegments()
	for s := 0; s < 2; s++ {
		fps, authors, base := fpNew, auNew, len(fpOld)
		if s == 1 {
			fps, authors, base = fpOld, auOld, 0
		}
		// The kernel finds content-similar candidates batch-wise; hit runs
		// only on those, and a candidate that does not stop the scan resumes
		// it just below — visiting (and counting) exactly the entries the
		// sequential newest-first scan would.
		for from := len(fps) - 1; from >= 0; {
			i := postbin.NextWithin(fps, fp, lc, from)
			if i < 0 {
				comparisons += uint64(from + 1)
				break
			}
			comparisons += uint64(from - i + 1)
			if hit(base+i, authors[i]) {
				return true, comparisons
			}
			from = i - 1
		}
	}
	return false, comparisons
}

// anyHit stops a scan at its first content match.
func anyHit(int, int32) bool { return true }
