package simindex

import (
	"math/rand"
	"reflect"
	"testing"

	"firehose/internal/simhash"
)

func TestParamsValidate(t *testing.T) {
	good := []Params{{K: 3, Blocks: 6}, {K: 0, Blocks: 1}, {K: 6, Blocks: 16}}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Fatalf("%+v rejected: %v", p, err)
		}
	}
	bad := []Params{{K: -1, Blocks: 4}, {K: 64, Blocks: 65}, {K: 3, Blocks: 3}, {K: 3, Blocks: 65}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("%+v accepted", p)
		}
	}
}

func TestTableCountBinomial(t *testing.T) {
	tests := []struct {
		p    Params
		want int64
	}{
		{Params{K: 3, Blocks: 6}, 20},           // C(6,3)
		{Params{K: 3, Blocks: 4}, 4},            // C(4,3)... C(4,3)=4
		{Params{K: 1, Blocks: 4}, 4},            // C(4,1)
		{Params{K: 0, Blocks: 1}, 1},            // exact match, one table
		{Params{K: 2, Blocks: 8}, 28},           // C(8,2)
		{Params{K: 18, Blocks: 36}, 9075135300}, // C(36,18)
	}
	for _, tc := range tests {
		if got := tc.p.TableCount(); got != tc.want {
			t.Fatalf("TableCount(%+v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestKeyBits(t *testing.T) {
	if got := (Params{K: 3, Blocks: 4}).KeyBits(); got != 16 {
		t.Fatalf("KeyBits = %d, want 16 (one of four 16-bit blocks)", got)
	}
	if got := (Params{K: 3, Blocks: 6}).KeyBits(); got != 32 {
		t.Fatalf("KeyBits = %d, want 32", got)
	}
}

func TestFeasiblePlansBlowUp(t *testing.T) {
	plans := FeasiblePlans([]int{3, 6, 10, 14, 18}, 24)
	if len(plans) != 5 {
		t.Fatalf("plans = %d", len(plans))
	}
	// Monotone explosion: each threshold needs at least as many tables.
	for i := 1; i < len(plans); i++ {
		if plans[i].Tables < plans[i-1].Tables {
			t.Fatalf("tables should grow with k: %+v", plans)
		}
	}
	// λc=3 is cheap (paper: the web-crawling regime)...
	if plans[0].Tables > 100 {
		t.Fatalf("k=3 needs %d tables, should be small", plans[0].Tables)
	}
	// ...and λc=18 is astronomically out of reach (the Section 3 claim).
	if plans[4].Tables < 1_000_000 {
		t.Fatalf("k=18 needs only %d tables; the infeasibility argument failed", plans[4].Tables)
	}
}

func TestNewRejectsInfeasible(t *testing.T) {
	// The Section 3 claim as an exhaustive check: NO block layout makes
	// λc=18 indexable — small block counts fail the key-selectivity floor,
	// large ones the table budget.
	for b := 19; b <= 64; b++ {
		if _, err := New(Params{K: 18, Blocks: b}); err == nil {
			t.Fatalf("λc=18 layout with %d blocks accepted", b)
		}
	}
	if _, err := New(Params{K: 3, Blocks: 2}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestCombinations(t *testing.T) {
	got := combinations(4, 2)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("combinations(4,2) = %v", got)
	}
	if len(combinations(6, 3)) != 20 {
		t.Fatal("combinations(6,3) wrong size")
	}
}

func mustIndex(t *testing.T, p Params) *Index {
	t.Helper()
	idx, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestQueryExactRecall: the pigeonhole guarantee, entry by entry — Covered,
// restricted by its predicate to one stored entry, finds that entry exactly
// when it lies within K bits of the query and inside the time bound.
func TestQueryExactRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Params{{K: 3, Blocks: 6}, {K: 2, Blocks: 8}, {K: 5, Blocks: 8}, {K: 0, Blocks: 1}} {
		idx := mustIndex(t, p)
		var all []Entry
		base := simhash.Fingerprint(rng.Uint64())
		for i := 0; i < 400; i++ {
			fp := base
			// Half the entries cluster near base, half are random.
			if i%2 == 0 {
				for f := rng.Intn(p.K + 3); f > 0; f-- {
					fp ^= 1 << uint(rng.Intn(64))
				}
			} else {
				fp = simhash.Fingerprint(rng.Uint64())
			}
			e := Entry{FP: fp, ID: uint64(i + 1), Aux: int32(i), Time: int64(i)}
			idx.Add(e)
			all = append(all, e)
		}
		for trial := 0; trial < 50; trial++ {
			q := base
			for f := rng.Intn(p.K + 4); f > 0; f-- {
				q ^= 1 << uint(rng.Intn(64))
			}
			minTime := int64(rng.Intn(300))
			for _, e := range all {
				want := e.Time >= minTime && simhash.Distance(e.FP, q) <= p.K
				got, _ := idx.Covered(q, minTime, func(m Entry) bool { return m.ID == e.ID })
				if got != want {
					t.Fatalf("params %+v: entry %d (distance %d, time %d ≥ %d) found = %v, want %v",
						p, e.ID, simhash.Distance(e.FP, q), e.Time, minTime, got, want)
				}
			}
		}
	}
}

// TestQueryReturnsAux: the predicate sees the stored entry, caller-defined
// Aux included — the covBin's author check depends on it.
func TestQueryReturnsAux(t *testing.T) {
	idx := mustIndex(t, Params{K: 1, Blocks: 4})
	idx.Add(Entry{FP: 0xABC, ID: 7, Aux: 42, Time: 1})
	var seen Entry
	if got, _ := idx.Covered(0xABC, 0, func(e Entry) bool { seen = e; return e.Aux == 42 }); !got {
		t.Fatal("Covered missed the entry carrying Aux 42")
	}
	if seen != (Entry{FP: 0xABC, ID: 7, Aux: 42, Time: 1}) {
		t.Fatalf("predicate saw %+v", seen)
	}
	if got, _ := idx.Covered(0xABC, 0, func(e Entry) bool { return e.Aux == 41 }); got {
		t.Fatal("Covered matched an entry whose Aux fails the predicate")
	}
}

func TestCopies(t *testing.T) {
	idx := mustIndex(t, Params{K: 3, Blocks: 6}) // 20 tables
	idx.Add(Entry{FP: 1, ID: 1, Time: 1})
	idx.Add(Entry{FP: 2, ID: 2, Time: 2})
	if got := idx.Copies(); got != 40 {
		t.Fatalf("Copies = %d, want 40", got)
	}
}

func BenchmarkCovered(b *testing.B) {
	idx, err := New(Params{K: 3, Blocks: 6})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		idx.Add(Entry{FP: simhash.Fingerprint(rng.Uint64()), ID: uint64(i), Time: int64(i)})
	}
	q := simhash.Fingerprint(rng.Uint64())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Covered(q, 0, nil)
	}
}

func TestAutoParams(t *testing.T) {
	// The feasibility cutoff: K ≤ 6 gets a layout within AutoMaxTables
	// tables, K ≥ 7 does not (C(10,7)=120 is the cheapest acceptable layout).
	wantTables := map[int]int64{0: 1, 1: 2, 2: 3, 3: 4, 4: 15, 5: 21, 6: 28}
	for k := 0; k <= 6; k++ {
		p, ok := AutoParams(k)
		if !ok {
			t.Fatalf("AutoParams(%d) infeasible, want feasible", k)
		}
		if p.K != k || p.TableCount() != wantTables[k] {
			t.Fatalf("AutoParams(%d) = %+v (%d tables), want %d tables", k, p, p.TableCount(), wantTables[k])
		}
		if k > 0 && p.KeyBits() < MinKeyBits {
			t.Fatalf("AutoParams(%d) keys on %d bits, below floor", k, p.KeyBits())
		}
		if _, err := New(p); err != nil {
			t.Fatalf("AutoParams(%d) layout rejected by New: %v", k, err)
		}
	}
	for _, k := range []int{7, 10, 18, 63, -1, 64} {
		if p, ok := AutoParams(k); ok {
			t.Fatalf("AutoParams(%d) = %+v, want infeasible", k, p)
		}
	}
}

func TestCoveredMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []Params{{K: 3, Blocks: 6}, {K: 2, Blocks: 8}, {K: 6, Blocks: 8}, {K: 0, Blocks: 1}} {
		idx := mustIndex(t, p)
		base := simhash.Fingerprint(rng.Uint64())
		var all []Entry
		for i := 0; i < 300; i++ {
			fp := base
			if i%2 == 0 {
				for f := rng.Intn(p.K + 3); f > 0; f-- {
					fp ^= 1 << uint(rng.Intn(64))
				}
			} else {
				fp = simhash.Fingerprint(rng.Uint64())
			}
			e := Entry{FP: fp, ID: uint64(i + 1), Aux: int32(i % 5), Time: int64(i)}
			idx.Add(e)
			all = append(all, e)
		}
		for trial := 0; trial < 200; trial++ {
			q := base
			for f := rng.Intn(p.K + 4); f > 0; f-- {
				q ^= 1 << uint(rng.Intn(64))
			}
			minTime := int64(rng.Intn(300))
			var pred func(Entry) bool
			wantAux := int32(-1)
			if trial%2 == 1 {
				wantAux = int32(rng.Intn(5))
				pred = func(e Entry) bool { return e.Aux == wantAux }
			}
			want := false
			for _, e := range all {
				if e.Time >= minTime && simhash.Distance(e.FP, q) <= p.K &&
					(wantAux < 0 || e.Aux == wantAux) {
					want = true
					break
				}
			}
			got, probes := idx.Covered(q, minTime, pred)
			if got != want {
				t.Fatalf("params %+v: Covered = %v, brute force = %v", p, got, want)
			}
			if got && probes == 0 {
				t.Fatalf("params %+v: covered with zero probes", p)
			}
		}
	}
}

func TestRemove(t *testing.T) {
	idx := mustIndex(t, Params{K: 2, Blocks: 6})
	var entries []Entry
	for i := 0; i < 200; i++ {
		e := Entry{FP: simhash.Fingerprint(i) * 0x9E3779B97F4A7C15, ID: uint64(i + 1), Time: int64(i)}
		idx.Add(e)
		entries = append(entries, e)
	}
	if idx.Remove(entries[5].FP, 999999) {
		t.Fatal("removed an id that was never added")
	}
	for i, e := range entries[:100] {
		if !idx.Remove(e.FP, e.ID) {
			t.Fatalf("entry %d not found for removal", i)
		}
	}
	if idx.Len() != 100 {
		t.Fatalf("Len after removals = %d, want 100", idx.Len())
	}
	for i, e := range entries {
		cov, _ := idx.Covered(e.FP, 0, func(m Entry) bool { return m.ID == e.ID })
		if want := i >= 100; cov != want {
			t.Fatalf("entry %d: covered = %v, want %v", i, cov, want)
		}
	}
	if idx.Remove(entries[0].FP, entries[0].ID) {
		t.Fatal("double remove succeeded")
	}
}

// TestChurnConsistency drives the index through the streaming lifecycle —
// interleaved Add, Remove-oldest and expiry of a whole window edge — and
// cross-checks Covered against brute force throughout, exercising the bucket
// freelist and map compaction.
func TestChurnConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	idx := mustIndex(t, Params{K: 3, Blocks: 6})
	base := simhash.Fingerprint(rng.Uint64())
	var live []Entry
	now, nextID := int64(0), uint64(1)
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // add
			now += int64(rng.Intn(3))
			fp := base
			for f := rng.Intn(8); f > 0; f-- {
				fp ^= 1 << uint(rng.Intn(64))
			}
			e := Entry{FP: fp, ID: nextID, Aux: int32(nextID), Time: now}
			nextID++
			idx.Add(e)
			live = append(live, e)
		case op < 8: // remove oldest
			if len(live) > 0 {
				if !idx.Remove(live[0].FP, live[0].ID) {
					t.Fatalf("step %d: oldest entry missing", step)
				}
				live = live[1:]
			}
		default: // expire a window edge, oldest first
			cutoff := now - int64(rng.Intn(50))
			for len(live) > 0 && live[0].Time < cutoff {
				if !idx.Remove(live[0].FP, live[0].ID) {
					t.Fatalf("step %d: expiring entry missing", step)
				}
				live = live[1:]
			}
		}
		if idx.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, idx.Len(), len(live))
		}
		if step%200 == 0 {
			q := base
			for f := rng.Intn(8); f > 0; f-- {
				q ^= 1 << uint(rng.Intn(64))
			}
			for _, minTime := range []int64{0, now - 20} {
				want := false
				for _, e := range live {
					if e.Time >= minTime && simhash.Distance(e.FP, q) <= 3 {
						want = true
						break
					}
				}
				if got, _ := idx.Covered(q, minTime, nil); got != want {
					t.Fatalf("step %d: Covered(minTime %d) = %v, brute force %v", step, minTime, got, want)
				}
			}
		}
	}
}
