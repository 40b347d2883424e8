package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"firehose/internal/twittergen"
)

// The experiments are deterministic, so one shared small dataset serves all
// tests (built lazily, reused across tests in the package).
var (
	dsOnce sync.Once
	dsTest *Dataset
)

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		ds, err := Build(DefaultConfig(800))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		dsTest = ds
	})
	if dsTest == nil {
		t.Fatal("dataset failed to build")
	}
	return dsTest
}

func testPairs(t *testing.T) []twittergen.LabeledPair {
	t.Helper()
	cfg := twittergen.PairSetConfig{
		PairsPerBucket: 25, MinDistance: 3, MaxDistance: 22, CandidateBudget: 250_000,
	}
	pairs, err := LabeledPairs(testDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestDatasetDeterminism(t *testing.T) {
	a, err := Build(DefaultConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(DefaultConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Posts()) != len(b.Posts()) {
		t.Fatal("datasets differ across identical configs")
	}
	for i := range a.Posts() {
		if a.Posts()[i].Text != b.Posts()[i].Text {
			t.Fatalf("post %d differs", i)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2(testDataset(t), 4000)
	if r.Mean < 27 || r.Mean > 35 {
		t.Fatalf("mean %v, want ≈32 (paper Figure 2)", r.Mean)
	}
	if r.Mass2440 < 0.5 {
		t.Fatalf("mass in [24,40] = %v, want most of the distribution", r.Mass2440)
	}
	// Unimodal-ish: the mode should be near the mean.
	mode, modeCount := 0, 0
	total := 0
	for d, c := range r.Counts {
		total += c
		if c > modeCount {
			mode, modeCount = d, c
		}
	}
	if total != r.Pairs {
		t.Fatalf("histogram total %d != pairs %d", total, r.Pairs)
	}
	if mode < 24 || mode > 40 {
		t.Fatalf("mode at %d, want near 32", mode)
	}
	if !strings.Contains(r.Table().String(), "mean=") {
		t.Fatal("table missing summary")
	}
}

func TestFig3Fig4Shapes(t *testing.T) {
	pairs := testPairs(t)
	raw := Fig3(pairs)
	norm := Fig4(pairs)

	if len(raw.Points) != 20 || len(norm.Points) != 20 {
		t.Fatalf("curves have %d/%d points, want 20", len(raw.Points), len(norm.Points))
	}
	// Precision decreases and recall increases along the threshold axis
	// (allowing small non-monotonicity from sampling noise).
	first, last := norm.Points[0], norm.Points[len(norm.Points)-1]
	if first.Precision < 0.9 {
		t.Fatalf("normalized precision at h=3 is %v, want ≈1", first.Precision)
	}
	if last.Recall < 0.9 {
		t.Fatalf("normalized recall at h=22 is %v, want ≈1", last.Recall)
	}
	if first.Recall > last.Recall {
		t.Fatal("recall should grow with threshold")
	}

	// Figure 4's headline: crossover near h=18 with P and R both high.
	cr := norm.Crossover
	if cr.Threshold < 12 || cr.Threshold > 22 {
		t.Fatalf("normalized crossover at h=%v, paper finds 18", cr.Threshold)
	}
	if cr.Precision < 0.85 || cr.Recall < 0.85 {
		t.Fatalf("normalized crossover P=%v R=%v, paper finds 0.96/0.95", cr.Precision, cr.Recall)
	}

	// Normalization must not hurt: compare area-ish via recall at the
	// crossover threshold and precision at high thresholds.
	rawAt := func(h float64) PRPoint {
		for _, p := range raw.Points {
			if p.Threshold == h {
				return p
			}
		}
		t.Fatalf("missing raw point at %v", h)
		return PRPoint{}
	}
	if rawRec := rawAt(18).Recall; rawRec > norm.Points[15].Recall+0.05 {
		t.Fatalf("normalization lowered recall at 18: raw %v vs norm %v",
			rawRec, norm.Points[15].Recall)
	}
}

func TestCosineStudyShape(t *testing.T) {
	pairs := testPairs(t)
	r := CosineStudy(pairs)
	// The paper finds the crossover at cosine similarity 0.7 with P/R
	// matching SimHash's 0.96/0.95.
	cr := r.Crossover
	if cr.Threshold < 0.5 || cr.Threshold > 0.9 {
		t.Fatalf("cosine crossover at %v, paper finds 0.7", cr.Threshold)
	}
	if cr.Precision < 0.85 || cr.Recall < 0.85 {
		t.Fatalf("cosine crossover P=%v R=%v too low", cr.Precision, cr.Recall)
	}
}

func TestTable1HasExamples(t *testing.T) {
	pairs := testPairs(t)
	tbl := Table1(pairs, []int{3, 8, 13})
	if len(tbl.Rows) != 3 {
		t.Fatalf("Table 1 rows = %d", len(tbl.Rows))
	}
	s := tbl.String()
	if !strings.Contains(s, "Table 1") {
		t.Fatal("missing title")
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(testDataset(t))
	at02, at03 := r.At(0.2), r.At(0.3)
	if at02 < 0.012 || at02 > 0.04 {
		t.Fatalf("fraction >= 0.2 is %v, paper finds 0.023", at02)
	}
	if at03 < 0.002 || at03 > 0.015 {
		t.Fatalf("fraction >= 0.3 is %v, paper finds 0.006", at03)
	}
	// CCDF monotone non-increasing.
	for i := 1; i < len(r.Fractions); i++ {
		if r.Fractions[i] > r.Fractions[i-1]+1e-12 {
			t.Fatalf("CCDF not monotone at %d", i)
		}
	}
	if r.At(0.99) != -1 {
		t.Fatal("At should return -1 for unknown thresholds")
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10(testDataset(t))
	def := r.Row("content+time+author (defaults)")
	if def == nil {
		t.Fatal("missing defaults row")
	}
	// Paper: ~10% pruned with all three dimensions.
	if def.LeftFrac < 0.84 || def.LeftFrac > 0.95 {
		t.Fatalf("defaults keep %.3f of the stream, want ≈0.90", def.LeftFrac)
	}
	// Dropping any dimension must prune strictly more (smaller stream left).
	for _, name := range []string{
		"content+time (author dropped)",
		"content+author (time dropped)",
		"content only",
	} {
		row := r.Row(name)
		if row == nil {
			t.Fatalf("missing row %q", name)
		}
		if row.Left >= def.Left {
			t.Fatalf("%s keeps %d posts, defaults keep %d — dropping a dimension must prune more",
				name, row.Left, def.Left)
		}
	}
	// Content-only prunes the most of the dimension ablations.
	co := r.Row("content only")
	if co.Left > r.Row("content+time (author dropped)").Left ||
		co.Left > r.Row("content+author (time dropped)").Left {
		t.Fatal("content-only should prune at least as much as two-dimension settings")
	}
	if !strings.Contains(r.Table().String(), "Figure 10") {
		t.Fatal("table missing title")
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11(testDataset(t))
	if len(r.Results) != 15 {
		t.Fatalf("results = %d, want 5 settings × 3 algorithms", len(r.Results))
	}
	// Comparisons shrink with λt for every algorithm.
	for _, alg := range []string{"UniBin", "NeighborBin", "CliqueBin"} {
		small := r.Setting("1min")[alg]
		big := r.Setting("60min")[alg]
		if small.Comparisons >= big.Comparisons {
			t.Fatalf("%s: comparisons at 1min (%d) should be < at 60min (%d)",
				alg, small.Comparisons, big.Comparisons)
		}
		if small.PeakCopies >= big.PeakCopies {
			t.Fatalf("%s: RAM at 1min should be < at 60min", alg)
		}
	}
	// At 30min, NeighborBin and CliqueBin do far fewer comparisons than
	// UniBin (the paper's runtime win; wall time is noisy at test scale, so
	// assert on the machine-independent counter).
	at30 := r.Setting("30min")
	if at30["NeighborBin"].Comparisons >= at30["UniBin"].Comparisons {
		t.Fatal("NeighborBin should beat UniBin on comparisons at 30min")
	}
	if at30["CliqueBin"].Comparisons >= at30["UniBin"].Comparisons {
		t.Fatal("CliqueBin should beat UniBin on comparisons at 30min")
	}
	// RAM ordering: NeighborBin > CliqueBin > UniBin.
	if !(at30["NeighborBin"].PeakCopies > at30["CliqueBin"].PeakCopies &&
		at30["CliqueBin"].PeakCopies > at30["UniBin"].PeakCopies) {
		t.Fatalf("RAM ordering violated at 30min: %d / %d / %d",
			at30["NeighborBin"].PeakCopies, at30["CliqueBin"].PeakCopies, at30["UniBin"].PeakCopies)
	}
	// All three emit the same diversified stream.
	if at30["UniBin"].Accepted != at30["NeighborBin"].Accepted ||
		at30["UniBin"].Accepted != at30["CliqueBin"].Accepted {
		t.Fatal("algorithms disagree on the output stream size")
	}
}

func TestFig12Flat(t *testing.T) {
	r := Fig12(testDataset(t))
	// The paper finds λc barely matters: accepted counts at λc=9 and λc=18
	// differ by only a few percent.
	a9 := r.Setting("9")["UniBin"].Accepted
	a18 := r.Setting("18")["UniBin"].Accepted
	if a9 < a18 {
		t.Fatalf("smaller λc must keep at least as many posts (%d vs %d)", a9, a18)
	}
	if float64(a9-a18)/float64(a18) > 0.10 {
		t.Fatalf("λc sweep changes output by >10%%: %d vs %d", a9, a18)
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13(testDataset(t))
	if len(r.Topology) != 4 {
		t.Fatalf("topology rows = %d", len(r.Topology))
	}
	// d and c grow with λa.
	for i := 1; i < len(r.Topology); i++ {
		if r.Topology[i].D < r.Topology[i-1].D {
			t.Fatalf("d should grow with λa: %+v", r.Topology)
		}
	}
	if r.Topology[3].D <= r.Topology[2].D {
		t.Fatal("λa=0.8 should be denser than 0.7")
	}
	// NeighborBin degrades with λa while UniBin stays flat-ish: compare
	// insertions at 0.5 vs 0.8.
	nbLow := r.Setting("0.50")["NeighborBin"].Insertions
	nbHigh := r.Setting("0.80")["NeighborBin"].Insertions
	if nbHigh <= nbLow {
		t.Fatalf("NeighborBin insertions should grow with λa (%d vs %d)", nbLow, nbHigh)
	}
	ubLow := r.Setting("0.50")["UniBin"].Insertions
	ubHigh := r.Setting("0.80")["UniBin"].Insertions
	ratioNB := float64(nbHigh) / float64(nbLow)
	ratioUB := float64(ubHigh) / float64(ubLow)
	if ratioNB < 2*ratioUB {
		t.Fatalf("NeighborBin should degrade much faster than UniBin (×%.2f vs ×%.2f)", ratioNB, ratioUB)
	}
	// At λa=0.8 UniBin must store (far) fewer copies than the others.
	at08 := r.Setting("0.80")
	if at08["UniBin"].PeakCopies*2 > at08["NeighborBin"].PeakCopies {
		t.Fatal("UniBin should use far less RAM than NeighborBin at λa=0.8")
	}
}

func TestFig14Shape(t *testing.T) {
	r := Fig14(testDataset(t))
	// At the 1% sample the stream is tiny; UniBin should do no more
	// insertions and use no more RAM than the other two while comparisons
	// stay negligible — the regime where it wins end to end.
	low := r.Setting("1.00%")
	if low["UniBin"].Insertions > low["NeighborBin"].Insertions ||
		low["UniBin"].Insertions > low["CliqueBin"].Insertions {
		t.Fatal("UniBin should do the fewest insertions at low throughput")
	}
	full := r.Setting("100.00%")
	// At full rate the comparison gap justifies NeighborBin/CliqueBin.
	if full["NeighborBin"].Comparisons >= full["UniBin"].Comparisons {
		t.Fatal("NeighborBin should save comparisons at full rate")
	}
	// Work shrinks with the sample rate.
	if low["UniBin"].Comparisons >= full["UniBin"].Comparisons {
		t.Fatal("comparisons should shrink with the post rate")
	}
}

func TestFig15Shape(t *testing.T) {
	ds := testDataset(t)
	r := Fig15(ds)
	full := r.Setting(fmtInt(uint64(ds.Cfg.NumAuthors)))
	small := r.Setting(fmtInt(uint64(ds.Cfg.NumAuthors / 10)))
	if len(full) != 3 || len(small) != 3 {
		t.Fatalf("missing settings: %d/%d", len(full), len(small))
	}
	if small["UniBin"].Comparisons >= full["UniBin"].Comparisons {
		t.Fatal("fewer subscriptions must mean fewer comparisons")
	}
	if small["UniBin"].Insertions > small["NeighborBin"].Insertions {
		t.Fatal("UniBin should insert least with few subscriptions")
	}
	// Output equivalence still holds on induced subgraphs.
	if small["UniBin"].Accepted != small["CliqueBin"].Accepted {
		t.Fatal("algorithms disagree on a subscribed-subset run")
	}
}

func TestTable2ModelAgreement(t *testing.T) {
	r := Table2(testDataset(t))
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Predicted <= 0 {
			t.Fatalf("non-positive prediction: %+v", row)
		}
		// The paper's estimates are informal averages; require agreement
		// within a factor of 3.5 (comparisons especially depend on scan
		// early-termination the model ignores).
		if row.Ratio < 1/3.5 || row.Ratio > 3.5 {
			t.Fatalf("model off by more than 3.5x: %+v", row)
		}
	}
	if r.Q <= 0 || r.Q > 1.5 {
		t.Fatalf("overlap ratio q = %v implausible", r.Q)
	}
}

func TestTable3Orderings(t *testing.T) {
	tbl := Table3(testDataset(t))
	want := map[string][]string{
		// property: UniBin, NeighborBin, CliqueBin
		"RAM":         {"Low", "High", "Moderate"},
		"Comparisons": {"High", "Low", "Moderate"},
		"Insertions":  {"Low", "High", "Moderate"},
	}
	for _, row := range tbl.Rows {
		w := want[row[0]]
		if w == nil {
			t.Fatalf("unexpected property %q", row[0])
		}
		for i := 0; i < 3; i++ {
			if row[i+1] != w[i] {
				t.Fatalf("%s: got %v, paper says %v", row[0], row[1:], w)
			}
		}
	}
}

func TestTable4Static(t *testing.T) {
	s := Table4().String()
	for _, want := range []string{"UniBin", "NeighborBin", "CliqueBin", "Twitter", "Twitch"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 4 missing %q", want)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	r, err := Fig16(testDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 6 {
		t.Fatalf("results = %d, want 6", len(r.Results))
	}
	if r.SharedComponents <= 0 || r.TotalComponents < r.SharedComponents {
		t.Fatalf("components: shared %d total %d", r.SharedComponents, r.TotalComponents)
	}
	// The S_* variants must save comparisons, insertions and RAM over M_*.
	for _, alg := range []string{"UniBin", "NeighborBin", "CliqueBin"} {
		m, s := r.Get("M_"+alg), r.Get("S_"+alg)
		if m == nil || s == nil {
			t.Fatalf("missing results for %s", alg)
		}
		if s.Comparisons > m.Comparisons {
			t.Fatalf("S_%s does more comparisons than M_%s (%d vs %d)",
				alg, alg, s.Comparisons, m.Comparisons)
		}
		if s.Insertions > m.Insertions {
			t.Fatalf("S_%s does more insertions than M_%s", alg, alg)
		}
		if s.PeakCopies > m.PeakCopies {
			t.Fatalf("S_%s stores more than M_%s", alg, alg)
		}
		// S counts each shared component's decision once while M counts it
		// once per subscribed user, so S totals are bounded by M totals.
		// (Per-user timeline equality is property-tested in internal/core.)
		if s.Accepted > m.Accepted || s.Rejected > m.Rejected {
			t.Fatalf("S_%s processed more than M_%s", alg, alg)
		}
	}
	// S_UniBin shows the largest relative comparison saving (paper: 43%
	// runtime saving vs 8% and 4%).
	cmpMetric := func(p PerfResult) float64 { return float64(p.Comparisons) }
	uni := r.Improvement("UniBin", cmpMetric)
	nb := r.Improvement("NeighborBin", cmpMetric)
	if uni <= 0 {
		t.Fatalf("S_UniBin shows no comparison saving (%.3f)", uni)
	}
	if uni < nb {
		t.Fatalf("UniBin sharing gain (%.3f) should exceed NeighborBin's (%.3f)", uni, nb)
	}
}

func TestQuality(t *testing.T) {
	r := Quality(testDataset(t))
	// Similar-recent duplicates are the model's target: the vast majority
	// must be pruned.
	if rate := r.PruneRate(twittergen.DupSimilarRecent); rate < 0.7 {
		t.Fatalf("similar-recent dup prune rate %.3f, want most pruned", rate)
	}
	// Fresh posts should almost all survive.
	if rate := r.PruneRate(twittergen.Fresh); rate > 0.08 {
		t.Fatalf("fresh prune rate %.3f, want near zero", rate)
	}
	// Dissimilar-author and old self-duplicates are protected by the author
	// and time dimensions: pruned far less often than the targets.
	target := r.PruneRate(twittergen.DupSimilarRecent)
	if rate := r.PruneRate(twittergen.DupDissimilarRecent); rate > target/2 {
		t.Fatalf("dissimilar-recent prune rate %.3f too close to target %.3f", rate, target)
	}
	if rate := r.PruneRate(twittergen.DupSimilarOld); rate > target/2 {
		t.Fatalf("similar-old prune rate %.3f too close to target %.3f", rate, target)
	}
	if !strings.Contains(r.Table().String(), "provenance") {
		t.Fatal("table missing title")
	}
}

func TestIndexStudy(t *testing.T) {
	r, err := IndexStudy(testDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Plans) != 5 {
		t.Fatalf("plans = %d", len(r.Plans))
	}
	// λc=18 must be infeasible (>1e6 tables) while λc=3 is cheap.
	if r.Plans[0].Tables > 100 {
		t.Fatalf("λc=3 plan needs %d tables", r.Plans[0].Tables)
	}
	if r.Plans[4].Tables < 1_000_000 {
		t.Fatalf("λc=18 plan needs only %d tables", r.Plans[4].Tables)
	}
	// Same output stream from the indexed and the scanned bin.
	if r.Indexed.Accepted != r.Scan.Accepted {
		t.Fatalf("indexed kept %d posts, scan kept %d", r.Indexed.Accepted, r.Scan.Accepted)
	}
	// The index's whole point: far fewer candidate probes.
	if r.Indexed.Comparisons*2 > r.Scan.Comparisons {
		t.Fatalf("index probes %d vs scan %d — no saving", r.Indexed.Comparisons, r.Scan.Comparisons)
	}
	// Its cost: one entry per table for every post the ring stores.
	if r.tables*r.Indexed.PeakCopies <= r.Scan.PeakCopies {
		t.Fatalf("index should hold more entries (%d tables × %d) than the ring's %d copies",
			r.tables, r.Indexed.PeakCopies, r.Scan.PeakCopies)
	}
	if !strings.Contains(r.Table().String(), "feasibility") {
		t.Fatal("table missing title")
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	ds, err := Build(DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	pairCfg := twittergen.PairSetConfig{
		PairsPerBucket: 10, MinDistance: 3, MaxDistance: 22, CandidateBudget: 100_000,
	}
	if err := RunAll(&buf, ds, pairCfg, 1000); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 2", "Table 1", "Figure 3", "Figure 4", "cosine",
		"Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
		"Figure 14", "Figure 15", "Table 2", "Table 3", "Table 4", "Figure 16",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
}

func TestThroughputScaling(t *testing.T) {
	r, err := Throughput(7, []int{200, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PostsPerSec <= 0 || row.NsPerPost <= 0 {
			t.Fatalf("non-positive rate: %+v", row)
		}
	}
	if _, ok := r.Best(200); !ok {
		t.Fatal("Best(200) missing")
	}
	if _, ok := r.Best(999); ok {
		t.Fatal("Best for unknown scale should be absent")
	}
	if !strings.Contains(r.Table().String(), "Throughput") {
		t.Fatal("table missing title")
	}
}
