package authorsim_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"firehose/internal/authorsim"
)

// pairsAboveModel is the specification of PairsAbove: one sequential
// accumulation pass per author over a map from followee id to its
// followers, then one global sort. PairsAbove must return exactly its output.
func pairsAboveModel(v *authorsim.Vectors, minSim float64) []authorsim.SimPair {
	n := int32(v.NumAuthors())
	followers := make(map[int32][]int32)
	for a := int32(0); a < n; a++ {
		for _, t := range v.Followees(a) {
			followers[t] = append(followers[t], a)
		}
	}
	var out []authorsim.SimPair
	counts := make([]int32, n)
	var touched []int32
	for a := int32(0); a < n; a++ {
		fa := v.Followees(a)
		touched = touched[:0]
		for _, t := range fa {
			for _, b := range followers[t] {
				if b > a {
					if counts[b] == 0 {
						touched = append(touched, b)
					}
					counts[b]++
				}
			}
		}
		la := float64(len(fa))
		for _, b := range touched {
			sim := float64(counts[b]) / math.Sqrt(la*float64(len(v.Followees(b))))
			counts[b] = 0
			if sim >= minSim {
				out = append(out, authorsim.SimPair{A: a, B: b, Sim: sim})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// heavyOnlyFollowees builds authors whose shared followees are all among
// the 64 most-followed accounts: each follows about a third of accounts
// 0..63 plus three accounts nobody else follows. Every pair shares heavy
// keys only, so a qualifying pair is found only when its authors fall back
// to scanning the heavy keys' follower lists.
func heavyOnlyFollowees(rng *rand.Rand) [][]int32 {
	fs := make([][]int32, 100)
	for a := range fs {
		for id := int32(0); id < 64; id++ {
			if rng.Intn(3) == 0 {
				fs[a] = append(fs[a], id)
			}
		}
		for i := int32(0); i < 3; i++ {
			fs[a] = append(fs[a], 1000+3*int32(a)+i)
		}
	}
	return fs
}

// fewKeysFollowees builds authors over an account universe of fewer than
// 64 ids, so every followee with two or more followers is heavy.
func fewKeysFollowees(rng *rand.Rand) [][]int32 {
	fs := make([][]int32, 60)
	for a := range fs {
		for k := 1 + rng.Intn(15); k > 0; k-- {
			fs[a] = append(fs[a], int32(rng.Intn(40)))
		}
	}
	return fs
}

// TestPairsAboveMatchesSequentialModel compares the parallel CSR join with
// the model on random inputs: no authors, authors with no followees,
// duplicate followees, and followee ids that are negative, near ±2³¹ or
// spread over the whole int32 range, at several GOMAXPROCS so chunks are
// claimed by one or many workers. Each GOMAXPROCS also joins inputs whose
// qualifying pairs share heavy keys only and inputs with fewer than 64 keys
// in total; "boot" joins the pipeline benchmark's 5,000-author graphs.
func TestPairsAboveMatchesSequentialModel(t *testing.T) {
	check := func(t *testing.T, name string, fs [][]int32, minSim float64) []authorsim.SimPair {
		t.Helper()
		v := authorsim.NewVectors(fs)
		got, want := v.PairsAbove(minSim), pairsAboveModel(v, minSim)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (n=%d minSim=%v): got %d pairs %v, model %d pairs %v",
				name, len(fs), minSim, len(got), got, len(want), want)
		}
		return got
	}
	bases := []int64{0, -5000, math.MinInt32, math.MaxInt32 - 200}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			for trial := 0; trial < 40; trial++ {
				n := rng.Intn(200)
				if trial%10 == 0 {
					n = 0
				}
				universe := 1 + rng.Intn(200)
				base := bases[rng.Intn(len(bases))]
				wide := rng.Intn(4) == 0 // some ids anywhere in int32
				fs := make([][]int32, n)
				for a := range fs {
					for k := rng.Intn(25); k > 0; k-- {
						id := base + int64(rng.Intn(universe))
						if wide && rng.Intn(3) == 0 {
							id = int64(int32(rng.Uint32()))
						}
						fs[a] = append(fs[a], int32(id))
						if rng.Intn(5) == 0 { // duplicate followee
							fs[a] = append(fs[a], int32(id))
						}
					}
				}
				check(t, fmt.Sprintf("trial %d (base=%d wide=%v)", trial, base, wide), fs, 0.05+rng.Float64()*0.9)
			}
			for trial := 0; trial < 10; trial++ {
				if got := check(t, fmt.Sprintf("heavy-only trial %d", trial), heavyOnlyFollowees(rng), 0.3+rng.Float64()*0.2); len(got) == 0 {
					t.Fatalf("heavy-only trial %d: no qualifying pair; the input does not exercise the fallback", trial)
				}
				check(t, fmt.Sprintf("few-keys trial %d", trial), fewKeysFollowees(rng), 0.05+rng.Float64()*0.9)
			}
		})
	}
	t.Run("boot", func(t *testing.T) {
		// The pair counts the pipeline benchmark's boot graphs have had
		// since the CSR join replaced the map-indexed one.
		for seed, want := range map[int64]int{1: 78093, 2: 77863, 3: 77750} {
			if got := check(t, fmt.Sprintf("seed %d", seed), bootGraph(seed), 0.3); len(got) != want {
				t.Fatalf("seed %d: %d pairs, want %d", seed, len(got), want)
			}
		}
	})
}

// TestPairsAboveAllocationIndependentOfIDRange joins authors whose followee
// ids sit at both ends of int32: the index must cost memory in proportion
// to the followee entries, not to the id span.
func TestPairsAboveAllocationIndependentOfIDRange(t *testing.T) {
	fs := make([][]int32, 100)
	for a := range fs {
		fs[a] = []int32{math.MinInt32, math.MinInt32 + int32(a%7), math.MaxInt32 - int32(a%5), math.MaxInt32}
	}
	v := authorsim.NewVectors(fs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pairs := v.PairsAbove(0.5)
	runtime.ReadMemStats(&after)
	if len(pairs) == 0 {
		t.Fatal("no pairs found")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("PairsAbove allocated %d bytes for 400 followee entries", got)
	}
	if want := pairsAboveModel(v, 0.5); !reflect.DeepEqual(pairs, want) {
		t.Fatalf("got %v, model %v", pairs, want)
	}
}

// sameGraph fails the test unless got and want have the same authors, λa
// and neighbor lists.
func sameGraph(t *testing.T, name string, got, want *authorsim.Graph) {
	t.Helper()
	if got.NumAuthors() != want.NumAuthors() || got.NumEdges() != want.NumEdges() || got.LambdaA() != want.LambdaA() {
		t.Fatalf("%s: %d authors, %d edges, λa %v; want %d, %d, %v", name,
			got.NumAuthors(), got.NumEdges(), got.LambdaA(), want.NumAuthors(), want.NumEdges(), want.LambdaA())
	}
	for a := int32(0); a < int32(want.NumAuthors()); a++ {
		if !reflect.DeepEqual(got.Neighbors(a), want.Neighbors(a)) {
			t.Fatalf("%s: author %d has neighbors %v, want %v", name, a, got.Neighbors(a), want.Neighbors(a))
		}
	}
}

// TestBuildGraphInPlaceMatchesBuildGraph: the in-place entry point builds
// the graph BuildGraph builds over a copy, on the benchmark's boot graphs
// and on rows that are unsorted, duplicated, negative, near ±2³¹, spread
// over the whole int32 range (the rank-map keys) or sharing heavy keys
// only.
func TestBuildGraphInPlaceMatchesBuildGraph(t *testing.T) {
	check := func(t *testing.T, name string, fs [][]int32, lambdaA float64) {
		t.Helper()
		want := authorsim.BuildGraph(authorsim.NewVectors(fs), lambdaA)
		sameGraph(t, name, authorsim.BuildGraphInPlace(fs, lambdaA), want)
	}
	for seed := int64(1); seed <= 3; seed++ {
		check(t, fmt.Sprintf("boot seed %d", seed), bootGraph(seed), 0.7)
	}
	rng := rand.New(rand.NewSource(7))
	for _, base := range []int64{0, -5000, math.MinInt32, math.MaxInt32 - 200} {
		for trial := 0; trial < 20; trial++ {
			fs := make([][]int32, rng.Intn(200))
			for a := range fs {
				for k := rng.Intn(25); k > 0; k-- {
					id := int32(base + int64(rng.Intn(150)))
					if trial%4 == 0 && rng.Intn(3) == 0 {
						id = int32(rng.Uint32()) // anywhere in int32: rank-map keys
					}
					fs[a] = append(fs[a], id)
					if rng.Intn(5) == 0 { // duplicate followee
						fs[a] = append(fs[a], id)
					}
				}
			}
			check(t, fmt.Sprintf("base %d trial %d", base, trial), fs, rng.Float64()*0.95)
		}
	}
	ends := make([][]int32, 100)
	for a := range ends {
		ends[a] = []int32{math.MaxInt32, math.MinInt32 + int32(a%7), math.MaxInt32 - int32(a%5), math.MinInt32, math.MaxInt32}
	}
	check(t, "ids at both ends of int32", ends, 0.5)
	for trial := 0; trial < 5; trial++ {
		check(t, fmt.Sprintf("heavy-only trial %d", trial), heavyOnlyFollowees(rng), 0.5+rng.Float64()*0.2)
		check(t, fmt.Sprintf("few-keys trial %d", trial), fewKeysFollowees(rng), rng.Float64()*0.95)
	}
}

// TestPairsAboveAllocatesOneEntryArray guards the join's memory on the
// benchmark's seed-1 graph (E = 624,602 followee entries, P = 78,093 pairs
// at 0.3): PairsAbove may allocate followers (4E bytes), the result and its
// per-chunk parts as append grows them (at most 5·16P bytes: one for the
// concatenated result, four for the chunks), and arrays sized by the
// authors or the keys (21,160 of them), which fit in that slack — 8.75 MB in
// all. A second E-sized int32 array, like the renumbered key copy or the slot
// table the join once kept, adds 2.5 MB and exceeds it.
func TestPairsAboveAllocatesOneEntryArray(t *testing.T) {
	v := authorsim.NewVectors(bootFollowees())
	entries := 0
	for a := int32(0); a < int32(v.NumAuthors()); a++ {
		entries += len(v.Followees(a))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pairs := v.PairsAbove(0.3)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	bound := uint64(4*entries + 5*16*len(pairs))
	if got > bound {
		t.Fatalf("PairsAbove allocated %d bytes over E = %d entries and P = %d pairs, want at most 4E + 5·16P = %d",
			got, entries, len(pairs), bound)
	}
}

// TestBuildGraphMatchesPairsAbove: BuildGraph, which fills the adjacency
// from the join's per-chunk neighbour lists, builds the graph NewGraph
// builds from the model's pair list, at several GOMAXPROCS, on no authors,
// author counts that end a join chunk part-way, rows of the rank-map and
// heavy-key regimes, and the benchmark's boot graph (against PairsAbove,
// which TestPairsAboveMatchesSequentialModel checks there). BuildGraphInPlace
// leaves every row its sorted, deduplicated followee set.
func TestBuildGraphMatchesPairsAbove(t *testing.T) {
	pairs := pairsAboveModel
	check := func(t *testing.T, name string, fs [][]int32, lambdaA float64) {
		t.Helper()
		v := authorsim.NewVectors(fs)
		want := authorsim.NewGraph(len(fs), pairs(v, 1-lambdaA), lambdaA)
		sameGraph(t, name, authorsim.BuildGraph(v, lambdaA), want)
		rows := make([][]int32, len(fs))
		for a, f := range fs {
			rows[a] = append([]int32(nil), f...)
		}
		sameGraph(t, name+" in place", authorsim.BuildGraphInPlace(rows, lambdaA), want)
		for a := range rows {
			if f := v.Followees(int32(a)); !slices.Equal(rows[a], f) {
				t.Fatalf("%s: row %d reads %v after BuildGraphInPlace, want its followee set %v", name, a, rows[a], f)
			}
		}
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			for trial := 0; trial < 30; trial++ {
				n := []int{0, 1, 31, 32, 33, 65, rng.Intn(300)}[trial%7]
				wide := trial%3 == 0 // some ids anywhere in int32: rank-map keys
				fs := make([][]int32, n)
				for a := range fs {
					for k := rng.Intn(25); k > 0; k-- {
						id := int32(rng.Intn(120))
						if wide && rng.Intn(3) == 0 {
							id = int32(rng.Uint32())
						}
						fs[a] = append(fs[a], id)
						if rng.Intn(5) == 0 { // duplicate followee
							fs[a] = append(fs[a], id)
						}
					}
				}
				check(t, fmt.Sprintf("trial %d (n=%d wide=%v)", trial, n, wide), fs, rng.Float64()*0.95)
			}
			for trial := 0; trial < 5; trial++ {
				check(t, fmt.Sprintf("heavy-only trial %d", trial), heavyOnlyFollowees(rng), 0.5+rng.Float64()*0.2)
				check(t, fmt.Sprintf("few-keys trial %d", trial), fewKeysFollowees(rng), rng.Float64()*0.95)
			}
		})
	}
	t.Run("boot", func(t *testing.T) {
		pairs = (*authorsim.Vectors).PairsAbove
		check(t, "seed 1", bootFollowees(), 0.7)
	})
}

// TestBuildGraphInPlaceAllocates bounds what a daemon's join allocates on
// the benchmark's seed-1 graph (E = 624,602 followee entries, P = 78,077
// edges at λa = 0.7; 4.5 MB measured): the follower index's followers (4E
// bytes), the chunks' neighbour lists as append grows them and the
// adjacency (at most 3·8P bytes together), and arrays sized by the authors
// or the keys, which fit in 512 KiB — 4.9 MB in all. Materialising the
// pairs as 16-byte SimPairs, even once, adds 1.25 MB and exceeds it; the
// join that did it twice allocated 8.4 MB.
func TestBuildGraphInPlaceAllocates(t *testing.T) {
	src := bootFollowees()
	v := authorsim.NewVectors(src)
	rows := make([][]int32, len(src))
	entries := 0
	for a, f := range src {
		rows[a] = slices.Clone(f)
		entries += len(v.Followees(int32(a)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := authorsim.BuildGraphInPlace(rows, 0.7)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	bound := uint64(4*entries + 3*8*g.NumEdges() + 512<<10)
	if got > bound {
		t.Fatalf("BuildGraphInPlace allocated %d bytes over E = %d entries and P = %d edges, want at most 4E + 3·8P + 512 KiB = %d",
			got, entries, g.NumEdges(), bound)
	}
}
