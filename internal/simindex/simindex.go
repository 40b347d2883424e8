// Package simindex implements a Manku-style SimHash lookup index (block
// permutation over fingerprint bits, one table per block combination) and
// the feasibility analysis behind the paper's Section 3 decision NOT to use
// one.
//
// Manku, Jain and Das Sarma ("Detecting near-duplicates for web crawling",
// WWW 2007) retrieve all fingerprints within Hamming distance k of a query
// by the pigeonhole principle: split the 64 bits into b > k blocks; any
// fingerprint within distance k agrees with the query exactly on at least
// b−k blocks, so indexing every (b−k)-block combination guarantees recall.
// The number of tables is C(b, b−k) = C(b, k) and each stored fingerprint is
// copied into every table.
//
// This works beautifully at the k=3 they used for web pages. The paper's
// normalized-tweet threshold is λc = 18, and C(b, 18) with block keys wide
// enough to be selective explodes combinatorially — which is why Section 4
// falls back to linear scans pruned by the time and author dimensions. The
// TableCount and FeasiblePlans functions quantify that blow-up exactly; the
// Index type makes the k≤~6 regime available to applications with stricter
// content thresholds.
package simindex

import (
	"fmt"
	"math"
	"math/bits"

	"firehose/internal/simhash"
)

// Params selects an index layout.
type Params struct {
	// K is the maximum Hamming distance queries must retrieve.
	K int
	// Blocks is the number of bit blocks b; must satisfy K < Blocks <= 64.
	// Each table keys on a combination of Blocks−K blocks, i.e. on roughly
	// 64·(Blocks−K)/Blocks bits.
	Blocks int
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.K < 0 || p.K >= simhash.Size {
		return fmt.Errorf("simindex: K must be in [0,%d), got %d", simhash.Size, p.K)
	}
	if p.Blocks <= p.K || p.Blocks > simhash.Size {
		return fmt.Errorf("simindex: Blocks must be in (K, %d], got %d", simhash.Size, p.Blocks)
	}
	return nil
}

// KeyBits returns the effective key width of each table: the total bits in a
// (b−k)-block combination. Wider keys mean more selective buckets.
func (p Params) KeyBits() int {
	return simhash.Size * (p.Blocks - p.K) / p.Blocks
}

// TableCount returns C(Blocks, K), the number of tables (and the number of
// copies stored per fingerprint).
func (p Params) TableCount() int64 {
	return binomial(p.Blocks, p.K)
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		// Overflow guard: cap at MaxInt64 / 2 and saturate.
		if r > math.MaxInt64/int64(n-k+i) {
			return math.MaxInt64
		}
		r = r * int64(n-k+i) / int64(i)
	}
	return r
}

// Plan describes a feasible layout for a given K and minimum key width.
type Plan struct {
	Params   Params
	KeyBits  int
	Tables   int64
	CopiesGB float64 // storage for 1e6 fingerprints at 16B per table entry
}

// FeasiblePlans enumerates, for each distance threshold, the cheapest block
// layout whose table keys are at least minKeyBits wide (selectivity floor).
// It reproduces the paper's argument: at λc=3 a handful of tables suffice;
// at λc=18 the cheapest acceptable layout needs an astronomical table count.
func FeasiblePlans(ks []int, minKeyBits int) []Plan {
	plans := make([]Plan, 0, len(ks))
	for _, k := range ks {
		best := Plan{Tables: math.MaxInt64}
		for b := k + 1; b <= simhash.Size; b++ {
			p := Params{K: k, Blocks: b}
			if p.KeyBits() < minKeyBits {
				continue
			}
			if t := p.TableCount(); t < best.Tables {
				best = Plan{Params: p, KeyBits: p.KeyBits(), Tables: t}
			}
		}
		if best.Tables == math.MaxInt64 {
			// No layout meets the key-width floor (k too large): report the
			// minimal-blocks layout anyway so the blow-up is visible.
			p := Params{K: k, Blocks: k + 1}
			best = Plan{Params: p, KeyBits: p.KeyBits(), Tables: p.TableCount()}
		}
		best.CopiesGB = float64(best.Tables) * 1e6 * 16 / (1 << 30)
		plans = append(plans, best)
	}
	return plans
}

// Entry is one indexed fingerprint with its owner id, a caller-defined
// auxiliary value (the streaming diversifier stores the author id there) and
// a timestamp for the λt window eviction the streaming setting needs.
type Entry struct {
	FP   simhash.Fingerprint
	ID   uint64
	Aux  int32
	Time int64
}

// Index is the block-permutation index. It is not safe for concurrent use.
type Index struct {
	params Params
	// combos[i] lists the block indices forming table i's key.
	combos [][]int
	// blockOf[bit] is the block containing that bit; blockShift/blockWidth
	// give each block's position.
	blockStart, blockWidth []int
	tables                 []map[uint64][]Entry
	size                   int
	// freeBuckets recycles emptied bucket slices between Remove and Add, so
	// a steady windowed stream (one entry in, one entry out) allocates
	// nothing per operation. Bounded: see maxFreeBuckets.
	freeBuckets [][]Entry
	// peakKeys[i] tracks the high-water key count of table i since its last
	// rebuild. Go maps never shrink their bucket arrays, so after a traffic
	// burst a table whose keys have mostly expired still pins its peak
	// footprint; when the live key count falls below a quarter of the peak
	// the table is rebuilt compactly (see maybeCompact).
	peakKeys []int
}

// MinKeyBits is the selectivity floor New enforces: a table keyed on fewer
// bits degenerates into scanning large buckets, defeating the index. Block
// layouts for large K can only meet the floor with combinatorially many
// tables — the two constraints together are the paper's Section 3
// infeasibility at λc = 18.
const MinKeyBits = 16

// AutoMaxTables is the copy-factor ceiling of the automatic feasibility rule:
// AutoParams accepts a layout only when the cheapest block arrangement that
// meets the MinKeyBits selectivity floor needs at most this many tables. The
// bound is deliberately conservative — one uint64 fingerprint copied 64 times
// is 512 bytes per stored post, comparable to the post itself — and it places
// the auto cutoff at K ≤ 6, exactly the "strict content threshold" regime the
// paper's Section 3 analysis leaves open (at K=7 the cheapest acceptable
// layout already needs C(10,7) = 120 tables).
const AutoMaxTables = 64

// AutoParams applies the paper's Section 3 feasibility test to a Hamming
// distance threshold k: it returns the cheapest block layout whose table keys
// meet the MinKeyBits floor, and ok=false when that layout needs more than
// AutoMaxTables tables — the regime where the linear scan wins and callers
// must keep it.
func AutoParams(k int) (Params, bool) {
	if k < 0 || k >= simhash.Size {
		return Params{}, false
	}
	if k == 0 {
		return Params{K: 0, Blocks: 1}, true
	}
	best, bestTables := Params{}, int64(math.MaxInt64)
	for b := k + 1; b <= simhash.Size; b++ {
		p := Params{K: k, Blocks: b}
		if p.KeyBits() < MinKeyBits {
			continue
		}
		if t := p.TableCount(); t < bestTables {
			best, bestTables = p, t
		}
	}
	if bestTables > AutoMaxTables {
		return Params{}, false
	}
	return best, true
}

// New builds an empty index.
func New(p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.K > 0 && p.KeyBits() < MinKeyBits {
		return nil, fmt.Errorf("simindex: layout keys on %d bits (min %d); "+
			"buckets would not be selective — use more blocks", p.KeyBits(), MinKeyBits)
	}
	const maxTables = 1 << 16
	if t := p.TableCount(); t > maxTables {
		return nil, fmt.Errorf("simindex: layout needs %d tables (max %d); "+
			"this is the Section 3 infeasibility — lower K or accept linear scans", t, maxTables)
	}
	idx := &Index{params: p}
	// Block geometry: Blocks blocks covering 64 bits as evenly as possible.
	base, extra := simhash.Size/p.Blocks, simhash.Size%p.Blocks
	start := 0
	for i := 0; i < p.Blocks; i++ {
		w := base
		if i < extra {
			w++
		}
		idx.blockStart = append(idx.blockStart, start)
		idx.blockWidth = append(idx.blockWidth, w)
		start += w
	}
	// All combinations of Blocks−K blocks.
	idx.combos = combinations(p.Blocks, p.Blocks-p.K)
	idx.tables = make([]map[uint64][]Entry, len(idx.combos))
	for i := range idx.tables {
		idx.tables[i] = make(map[uint64][]Entry)
	}
	idx.peakKeys = make([]int, len(idx.combos))
	return idx, nil
}

func combinations(n, k int) [][]int {
	var out [][]int
	combo := make([]int, k)
	var rec func(start, i int)
	rec = func(start, i int) {
		if i == k {
			out = append(out, append([]int(nil), combo...))
			return
		}
		for v := start; v <= n-(k-i); v++ {
			combo[i] = v
			rec(v+1, i+1)
		}
	}
	rec(0, 0)
	return out
}

// key extracts and concatenates the blocks of combo from fp.
func (idx *Index) key(fp simhash.Fingerprint, combo []int) uint64 {
	var key uint64
	shift := 0
	for _, b := range combo {
		w := idx.blockWidth[b]
		bits := (uint64(fp) >> uint(idx.blockStart[b])) & ((1 << uint(w)) - 1)
		key |= bits << uint(shift)
		shift += w
	}
	return key
}

// Params returns the index layout.
func (idx *Index) Params() Params { return idx.params }

// Len returns the number of indexed entries (not copies).
func (idx *Index) Len() int { return idx.size }

// Copies returns the number of stored entry copies (Len × TableCount).
func (idx *Index) Copies() int64 { return int64(idx.size) * idx.params.TableCount() }

// maxFreeBuckets caps the bucket freelist so a burst's worth of emptied
// buckets is not pinned forever; beyond the cap, emptied buckets go to the
// garbage collector.
const maxFreeBuckets = 1024

// newBucket pops a recycled bucket slice (length 0, capacity preserved) or
// returns nil, letting append allocate.
func (idx *Index) newBucket() []Entry {
	if n := len(idx.freeBuckets); n > 0 {
		b := idx.freeBuckets[n-1]
		idx.freeBuckets[n-1] = nil
		idx.freeBuckets = idx.freeBuckets[:n-1]
		return b
	}
	return nil
}

// recycleBucket returns an emptied bucket's storage to the freelist.
func (idx *Index) recycleBucket(b []Entry) {
	if cap(b) == 0 || len(idx.freeBuckets) >= maxFreeBuckets {
		return
	}
	idx.freeBuckets = append(idx.freeBuckets, b[:0])
}

// maybeCompact rebuilds table i into a right-sized map once its live key
// count has fallen below a quarter of its high-water mark. delete() alone
// never returns a Go map's bucket array to the allocator, so without this a
// burst of distinct fingerprints would pin its peak footprint for the rest of
// the stream — the index analogue of postbin's shrink-on-prune policy.
func (idx *Index) maybeCompact(i int) {
	const minCompactKeys = 64
	live := len(idx.tables[i])
	if idx.peakKeys[i] < minCompactKeys || live >= idx.peakKeys[i]/4 {
		return
	}
	nt := make(map[uint64][]Entry, live)
	for k, b := range idx.tables[i] {
		nt[k] = b
	}
	idx.tables[i] = nt
	idx.peakKeys[i] = live
}

// Add indexes an entry into every table. Timestamps must be non-decreasing.
func (idx *Index) Add(e Entry) {
	for i, combo := range idx.combos {
		k := idx.key(e.FP, combo)
		t := idx.tables[i]
		b, ok := t[k]
		if !ok {
			b = idx.newBucket()
		}
		t[k] = append(b, e)
		if !ok && len(t) > idx.peakKeys[i] {
			idx.peakKeys[i] = len(t)
		}
	}
	idx.size++
}

// Covered is the index's probe: it reports whether any indexed entry lies
// within Hamming distance K of fp, has Time >= minTime and satisfies pred
// (nil means no extra predicate). By the pigeonhole construction recall is
// exact; the distance check filters the false positives each table's
// partial-key match admits. It allocates nothing, stops at the first hit,
// and does not deduplicate — an entry failing pred may be probed again
// through another table, which only affects the probe count (pred must be
// pure). probes counts bucket entries touched, the index analogue of the
// scan algorithms' pairwise comparisons.
func (idx *Index) Covered(fp simhash.Fingerprint, minTime int64, pred func(Entry) bool) (covered bool, probes int) {
	maxDist := idx.params.K
	for i, combo := range idx.combos {
		k := idx.key(fp, combo)
		for _, e := range idx.tables[i][k] {
			probes++
			if e.Time < minTime {
				continue
			}
			if bits.OnesCount64(uint64(e.FP^fp)) > maxDist {
				continue
			}
			if pred == nil || pred(e) {
				return true, probes
			}
		}
	}
	return false, probes
}

// Remove deletes the entry with the given fingerprint and id from every
// table, reporting whether it was present. Callers that evict in time order
// (the streaming window) hit the front of each bucket, since buckets are
// append-ordered by arrival.
func (idx *Index) Remove(fp simhash.Fingerprint, id uint64) bool {
	removed := false
	for i, combo := range idx.combos {
		k := idx.key(fp, combo)
		t := idx.tables[i]
		bucket := t[k]
		for j := range bucket {
			if bucket[j].ID != id {
				continue
			}
			copy(bucket[j:], bucket[j+1:])
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(t, k)
				idx.recycleBucket(bucket)
				idx.maybeCompact(i)
			} else {
				t[k] = bucket
			}
			removed = true
			break
		}
	}
	if removed {
		idx.size--
	}
	return removed
}
