// Command benchhot measures the ingestion hot path and writes the results as
// JSON — the committed BENCH_hotpath.json baseline comes from this tool.
//
// It benchmarks five layers:
//
//   - the post fingerprint: the fused one-pass kernel (core.Fingerprint)
//     against its executable spec, textnorm.NormalizedTokens + simhash.Hash,
//     over generated tweet texts;
//   - UniBin.Offer on the structure-of-arrays scan bin against the retained
//     seed implementation (core.ReferenceUniBin), reporting the single-thread
//     speedup of the SoA refactor;
//   - the index-accelerated coverage path against the exact scan: the same
//     scan-bound workload with the SimHash index answering the content
//     dimension, at the bench λc=6 and in the strict wide-window regime
//     (λc=3, 10× window) where candidate pruning dominates;
//   - the routed M_UniBin / S_UniBin multi-user paths, whose steady state
//     must stay at 0 allocs/op (the scratch-buffer contract);
//   - the parallel engine at 1, 2 and NumCPU workers, one-by-one and through
//     OfferBatch, reporting posts/sec.
//
// Usage:
//
//	go run ./cmd/benchhot [-benchtime 1s] [-out BENCH_hotpath.json]
//
// CI runs it with -benchtime 1x as a smoke (results meaningless but the
// harness is exercised); the committed baseline uses the default.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/simhash"
	"firehose/internal/stream"
	"firehose/internal/textnorm"
	"firehose/internal/twittergen"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	PostsPerSec float64 `json:"posts_per_sec"`
}

// Report is the BENCH_hotpath.json document.
type Report struct {
	Benchtime string   `json:"benchtime"`
	NumCPU    int      `json:"num_cpu"`
	GoVersion string   `json:"go_version"`
	Benches   []Result `json:"benches"`
	// SpeedupUniBin is reference ns/op divided by SoA ns/op for the
	// single-thread UniBin.Offer scan.
	SpeedupUniBin float64 `json:"speedup_unibin_soa_vs_reference"`
	// SpeedupIndexLc6 is exact-scan ns/op divided by indexed ns/op on the
	// scan-bound workload at the bench thresholds (λc=6, 3k-post window).
	SpeedupIndexLc6 float64 `json:"speedup_index_vs_scan_lc6"`
	// SpeedupIndexStrict is the same ratio in the strict wide-window regime
	// (λc=3, 60k-post window) — the regime the index promotion targets, and
	// the report's headline number.
	SpeedupIndexStrict float64 `json:"speedup_index_vs_scan_strict"`
	// SpeedupFingerprint is the spec pipeline's ns/op divided by the fused
	// kernel's over the same texts.
	SpeedupFingerprint float64 `json:"speedup_fingerprint_fused_vs_reference"`
}

func resultOf(name string, r testing.BenchmarkResult) Result {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	pps := 0.0
	if ns > 0 {
		pps = 1e9 / ns
	}
	return Result{
		Name:        name,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		PostsPerSec: pps,
	}
}

// postGen returns a deterministic post generator with a constant arrival
// rate: the λt window holds a stable population, so steady-state behavior
// (no bin growth, no shrink) is what gets measured. It reuses one Post value;
// the algorithms copy what they keep.
//
// clustered=true draws fingerprints near a few bases, so coverage fires and
// scans terminate early — the delivery-heavy regime. clustered=false draws
// uniform fingerprints nothing covers, so every arrival scans the whole
// window — the scan-bound regime the paper's cost model centres on, and the
// regime the SoA bin refactor targets.
func postGen(seed int64, nAuthors int, clustered bool) func() *core.Post {
	rng := rand.New(rand.NewSource(seed))
	bases := make([]simhash.Fingerprint, 6)
	for i := range bases {
		bases[i] = simhash.Fingerprint(rng.Uint64())
	}
	p := &core.Post{}
	var id uint64
	var now int64
	return func() *core.Post {
		id++
		now += 10
		var fp simhash.Fingerprint
		if clustered {
			fp = bases[rng.Intn(len(bases))]
			for k := rng.Intn(7); k > 0; k-- {
				fp ^= 1 << uint(rng.Intn(64))
			}
		} else {
			fp = simhash.Fingerprint(rng.Uint64())
		}
		p.ID, p.Author, p.Time, p.FP = id, int32(rng.Intn(nAuthors)), now, fp
		return p
	}
}

// benchGraph builds the shared author graph for the single-instance scans.
func benchGraph(nAuthors int) *authorsim.Graph {
	rng := rand.New(rand.NewSource(9))
	var pairs []authorsim.SimPair
	for a := int32(0); a < int32(nAuthors); a++ {
		for b := a + 1; b < int32(nAuthors); b++ {
			if rng.Float64() < 0.2 {
				pairs = append(pairs, authorsim.SimPair{A: a, B: b})
			}
		}
	}
	return authorsim.NewGraph(nAuthors, pairs, 0.7)
}

const (
	benchAuthors = 64
	warmupPosts  = 5000
)

// benchThresholds pins Index off: the scan benches measure the exact SoA
// path, keeping "…/soa" results comparable across baselines (under IndexAuto
// the λc=6 UniBin would silently become index-backed). The indexed variants
// run the same workloads with indexedThresholds.
var (
	benchThresholds = core.Thresholds{LambdaC: 6, LambdaT: 30_000, LambdaA: 0.7, Index: core.IndexOff}
	// λc=6 is past the auto-index break-even (28 tables), so exercising the
	// index there takes the explicit IndexOn opt-in — this pair documents
	// WHY core.AutoIndexMaxLambdaC stops at 3.
	indexedThresholds = core.Thresholds{LambdaC: 6, LambdaT: 30_000, LambdaA: 0.7, Index: core.IndexOn}
	// The strict regime: λc=3 (a 4-table index layout) over a 20×-wider
	// window, where the exact scan walks ~60k entries per Offer and the
	// index probes a few buckets — index cost is near-constant in the window
	// while the scan is linear, so this is where the ≥10× headline lives.
	strictScanThresholds    = core.Thresholds{LambdaC: 3, LambdaT: 600_000, LambdaA: 0.7, Index: core.IndexOff}
	strictIndexedThresholds = core.Thresholds{LambdaC: 3, LambdaT: 600_000, LambdaA: 0.7, Index: core.IndexAuto}
	// The paper-default content threshold, index-infeasible (Section 3):
	// IndexAuto must resolve to the exact scan with no overhead.
	lc18Thresholds = core.Thresholds{LambdaC: 18, LambdaT: 30_000, LambdaA: 0.7}
)

// benchDiversifier measures steady-state Offer on one SPSD instance.
func benchDiversifier(clustered bool, build func() core.Diversifier) testing.BenchmarkResult {
	return benchDiversifierWarm(clustered, warmupPosts, build)
}

// benchDiversifierWarm is benchDiversifier with an explicit warm-up count —
// the wide-window benches need the full 30k-entry window populated before
// measuring, or they would measure window growth instead of steady state.
func benchDiversifierWarm(clustered bool, warmup int, build func() core.Diversifier) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		d := build()
		next := postGen(1, benchAuthors, clustered)
		for i := 0; i < warmup; i++ {
			d.Offer(next())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Offer(next())
		}
	})
}

// benchMulti measures steady-state Offer on a multi-user solver.
func benchMulti(build func() core.MultiDiversifier) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		m := build()
		next := postGen(2, benchAuthors, true)
		for i := 0; i < warmupPosts; i++ {
			m.Offer(next())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Offer(next())
		}
	})
}

// scenario builds a realistic sharded workload for the parallel benches, and
// a day of generated tweet texts over it for the fingerprint benches.
func scenario() (*authorsim.Graph, [][]int32, []string) {
	rng := rand.New(rand.NewSource(5))
	sg, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(400))
	if err != nil {
		panic(err)
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(sg.Followees), 0.7)
	gs, err := twittergen.GenerateStream(rng, sg, g, twittergen.NewVocab(rng, 5000), twittergen.DefaultStreamConfig())
	if err != nil {
		panic(err)
	}
	texts := make([]string, len(gs.Posts))
	for i, p := range gs.Posts {
		texts[i] = p.Text
	}
	return g, sg.Subscriptions(), texts
}

// fpSink keeps the fingerprint loops' results alive.
var fpSink simhash.Fingerprint

// benchFingerprint measures one fingerprint function over the texts.
func benchFingerprint(texts []string, fp func(string) simhash.Fingerprint) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fpSink ^= fp(texts[i%len(texts)])
		}
	})
}

// materialize pre-builds n time-ordered posts (the parallel engine consumes
// posts asynchronously, so the reused-Post trick is off limits).
func materialize(n int) []*core.Post {
	next := postGen(3, 400, true)
	posts := make([]*core.Post, n)
	for i := range posts {
		p := *next()
		posts[i] = &p
	}
	return posts
}

// benchParallel measures the one-by-one offer path including the final drain.
func benchParallel(g *authorsim.Graph, subs [][]int32, workers int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		e, err := stream.NewParallelMultiEngine(core.AlgUniBin, g, subs, benchThresholds, workers)
		if err != nil {
			b.Fatal(err)
		}
		posts := materialize(b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for _, p := range posts {
			if _, err := e.Offer(p); err != nil {
				b.Fatal(err)
			}
		}
		e.Close()
	})
}

// benchParallelBatch measures OfferBatch in fixed-size chunks.
func benchParallelBatch(g *authorsim.Graph, subs [][]int32, workers, batch int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		e, err := stream.NewParallelMultiEngine(core.AlgUniBin, g, subs, benchThresholds, workers)
		if err != nil {
			b.Fatal(err)
		}
		posts := materialize(b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for off := 0; off < len(posts); off += batch {
			end := min(off+batch, len(posts))
			if _, err := e.OfferBatch(posts[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		e.Close()
	})
}

func main() {
	benchtime := flag.String("benchtime", "1s", "per-benchmark time or iteration count (passed to testing)")
	out := flag.String("out", "BENCH_hotpath.json", "output JSON path")
	testing.Init()
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "benchhot: bad -benchtime %q: %v\n", *benchtime, err)
		os.Exit(1)
	}

	rep := Report{
		Benchtime: *benchtime,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	add := func(name string, r testing.BenchmarkResult) Result {
		res := resultOf(name, r)
		rep.Benches = append(rep.Benches, res)
		fmt.Printf("%-40s %12.1f ns/op %8d B/op %6d allocs/op %14.0f posts/sec\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.PostsPerSec)
		return res
	}

	pg, psubs, texts := scenario()
	fpRef := add("Fingerprint/reference", benchFingerprint(texts, func(s string) simhash.Fingerprint {
		return simhash.Hash(textnorm.NormalizedTokens(s))
	}))
	fpFused := add("Fingerprint/fused", benchFingerprint(texts, core.Fingerprint))
	if fpFused.NsPerOp > 0 {
		rep.SpeedupFingerprint = fpRef.NsPerOp / fpFused.NsPerOp
	}
	fmt.Printf("%-40s %12.2fx\n", "Fingerprint speedup (fused vs spec)", rep.SpeedupFingerprint)

	g := benchGraph(benchAuthors)
	// Scan-bound regime: uniform fingerprints nothing covers, so every Offer
	// scans the full λt window. This is the regime the SoA layout targets and
	// the one the headline speedup is computed on.
	ref := add("UniBin.Offer/scan-bound/reference", benchDiversifier(false, func() core.Diversifier {
		return core.NewReferenceUniBin(g, benchThresholds)
	}))
	soa := add("UniBin.Offer/scan-bound/soa", benchDiversifier(false, func() core.Diversifier {
		return core.NewUniBin(g, benchThresholds)
	}))
	if soa.NsPerOp > 0 {
		rep.SpeedupUniBin = ref.NsPerOp / soa.NsPerOp
	}
	fmt.Printf("%-40s %12.2fx\n", "UniBin speedup (soa vs reference)", rep.SpeedupUniBin)
	// Index-accelerated coverage on the same scan-bound workload.
	idx6 := add("UniBin.Offer/scan-bound/indexed", benchDiversifier(false, func() core.Diversifier {
		return core.NewUniBin(g, indexedThresholds)
	}))
	if idx6.NsPerOp > 0 {
		rep.SpeedupIndexLc6 = soa.NsPerOp / idx6.NsPerOp
	}
	fmt.Printf("%-40s %12.2fx\n", "Index speedup (λc=6, 3k window)", rep.SpeedupIndexLc6)
	// The strict wide-window pair: 60k-entry window, λc=3.
	strictWarmup := 65_000
	strictScan := add("UniBin.Offer/scan-bound-strict/soa", benchDiversifierWarm(false, strictWarmup, func() core.Diversifier {
		return core.NewUniBin(g, strictScanThresholds)
	}))
	strictIdx := add("UniBin.Offer/scan-bound-strict/indexed", benchDiversifierWarm(false, strictWarmup, func() core.Diversifier {
		return core.NewUniBin(g, strictIndexedThresholds)
	}))
	if strictIdx.NsPerOp > 0 {
		rep.SpeedupIndexStrict = strictScan.NsPerOp / strictIdx.NsPerOp
	}
	fmt.Printf("%-40s %12.2fx\n", "Index speedup (λc=3, 60k window)", rep.SpeedupIndexStrict)
	// λc=18 under IndexAuto: the Section 3 infeasibility rule must resolve
	// to the plain exact scan — this bench exists to catch any overhead the
	// policy plumbing might add at the paper-default threshold.
	add("UniBin.Offer/scan-bound/lc18-auto", benchDiversifier(false, func() core.Diversifier {
		return core.NewUniBin(g, lc18Thresholds)
	}))
	// Delivery-heavy regime for context: clustered fingerprints, short scans.
	add("UniBin.Offer/clustered/reference", benchDiversifier(true, func() core.Diversifier {
		return core.NewReferenceUniBin(g, benchThresholds)
	}))
	add("UniBin.Offer/clustered/soa", benchDiversifier(true, func() core.Diversifier {
		return core.NewUniBin(g, benchThresholds)
	}))
	add("UniBin.Offer/clustered/indexed", benchDiversifier(true, func() core.Diversifier {
		return core.NewUniBin(g, indexedThresholds)
	}))

	subs := randomSubscriptions(benchAuthors, 32)
	add("MultiUser.Offer/M_UniBin", benchMulti(func() core.MultiDiversifier {
		m, err := core.NewMultiUser(core.AlgUniBin, g, subs, benchThresholds)
		if err != nil {
			panic(err)
		}
		return m
	}))
	add("SharedMultiUser.Offer/S_UniBin", benchMulti(func() core.MultiDiversifier {
		s, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, benchThresholds)
		if err != nil {
			panic(err)
		}
		return s
	}))

	for _, workers := range workerCounts() {
		add(fmt.Sprintf("ParallelEngine.Offer/workers=%d", workers), benchParallel(pg, psubs, workers))
		add(fmt.Sprintf("ParallelEngine.OfferBatch/workers=%d", workers), benchParallelBatch(pg, psubs, workers, 256))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchhot: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchhot: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// workerCounts is 1, 2, NumCPU deduplicated and ordered.
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// randomSubscriptions gives each of nUsers a deterministic random subset of
// the bench authors.
func randomSubscriptions(nAuthors, nUsers int) [][]int32 {
	rng := rand.New(rand.NewSource(4))
	subs := make([][]int32, nUsers)
	for u := range subs {
		for a := 0; a < nAuthors; a++ {
			if rng.Float64() < 0.3 {
				subs[u] = append(subs[u], int32(a))
			}
		}
		if len(subs[u]) == 0 {
			subs[u] = []int32{int32(rng.Intn(nAuthors))}
		}
	}
	return subs
}
