package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The tests run at toy scale — a few hundred authors, under 2,000 posts, the
// shapes hosted over httptest — so `go test ./...` stays fast; the real
// daemon is exercised by running the benchmark itself.
const toyAuthors = 400

var toyStream = streamSpec{name: "toy", postsPerAuthor: 4, durationMillis: 2 * 60 * 60 * 1000}

func toyInputs(t *testing.T, seed int64) *inputs {
	t.Helper()
	in, err := generateInputs(seed, t.TempDir(), toyAuthors)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func toyPosts(t *testing.T, in *inputs, n int) []post {
	t.Helper()
	ps, err := in.stream(toyStream)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) < n {
		t.Fatalf("toy stream has %d posts, want at least %d", len(ps), n)
	}
	return ps[:n]
}

func TestSameSeedSameInputs(t *testing.T) {
	digest := func(seed int64) (string, []byte) {
		in := toyInputs(t, seed)
		d, err := in.inputDigest(toyPosts(t, in, 1200))
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(in.followeesPath)
		if err != nil {
			t.Fatal(err)
		}
		return d, file
	}
	d1, f1 := digest(7)
	d2, f2 := digest(7)
	if !bytes.Equal(f1, f2) {
		t.Error("same seed wrote different followees files")
	}
	if d1 != d2 {
		t.Errorf("same seed gave input digests %s and %s", d1, d2)
	}
	if d3, _ := digest(8); d3 == d1 {
		t.Error("seeds 7 and 8 gave the same input digest")
	}
}

func TestSharedStreamGeneratedOnce(t *testing.T) {
	in := toyInputs(t, 1)
	first := toyPosts(t, in, 100)
	gen := in.genSeconds
	second := toyPosts(t, in, 100)
	if &first[0] != &second[0] {
		t.Error("the second request for the same stream regenerated it")
	}
	if in.genSeconds != gen {
		t.Error("generation time grew on a cached stream")
	}
	// The three `paper` workloads replay prefixes of that one stream.
	for _, w := range workloads {
		if w.name != "batch-par" && w.stream != streamPaper {
			t.Errorf("%s does not replay the shared paper stream", w.name)
		}
	}
}

// playBack feeds the checker the reference's own answers, after mutate had
// its way with them.
func playBack(exp *expectation, mutate func(answers []answer, sse []uint64) []uint64) *checker {
	answers := make([]answer, len(exp.delivered))
	for i, users := range exp.delivered {
		answers[i] = answer{ID: uint64(i + 1), Delivered: slices.Clone(users)}
	}
	sse := mutate(answers, slices.Clone(exp.SSEIDs))
	chk := newChecker(exp)
	for i := range answers {
		chk.request(answers[i : i+1])
	}
	chk.finish(exp.Accepted, exp.Rejected, sse, exp.Timelines)
	return chk
}

func TestCheckerCannotPassVacuously(t *testing.T) {
	in := toyInputs(t, 3)
	posts := toyPosts(t, in, 1500)
	exp, err := reference(workload{name: "toy"}, in, posts)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.SSEIDs) < 2 || exp.deliveries == 0 {
		t.Fatalf("toy reference too thin to test against: %d SSE ids, %d deliveries", len(exp.SSEIDs), exp.deliveries)
	}
	victim := slices.IndexFunc(exp.delivered, func(us []int32) bool { return len(us) > 0 })

	clean := playBack(exp, func(_ []answer, sse []uint64) []uint64 { return sse })
	if clean.failed != 0 {
		t.Fatalf("faithful answers failed: %s", clean.first)
	}
	if want := len(posts) + 2 + len(exp.SSEIDs) + 1 + timelineUsers; clean.attempted != want {
		t.Errorf("faithful run counted %d operations, want %d", clean.attempted, want)
	}

	cases := map[string]func(answers []answer, sse []uint64) []uint64{
		"one delivered user flipped": func(a []answer, sse []uint64) []uint64 {
			a[victim].Delivered[0] ^= 1
			return sse
		},
		"one delivered user missing": func(a []answer, sse []uint64) []uint64 {
			a[victim].Delivered = a[victim].Delivered[1:]
			return sse
		},
		"one SSE frame dropped": func(_ []answer, sse []uint64) []uint64 {
			return slices.Delete(sse, 1, 2)
		},
		"one SSE frame duplicated": func(_ []answer, sse []uint64) []uint64 {
			return slices.Insert(sse, 1, sse[0])
		},
		"ids off by one": func(a []answer, sse []uint64) []uint64 {
			for i := range a {
				a[i].ID++
			}
			return sse
		},
	}
	for name, mutate := range cases {
		if chk := playBack(exp, mutate); chk.failed == 0 {
			t.Errorf("%s: the checker passed", name)
		}
	}

	tampered := exp.golden
	tampered.SSEIDs = tampered.SSEIDs[1:]
	if diffGolden(tampered, exp.golden) == "" {
		t.Error("a golden with a dropped SSE id matches the reference")
	}
	if diff := diffGolden(exp.golden, exp.golden); diff != "" {
		t.Errorf("a golden differs from itself: %s", diff)
	}
}

// replayToy drives one in-process shape the way runWorkload drives the
// daemon: subscribe, replay with checkpoints, read back, check everything.
func replayToy(t *testing.T, in *inputs, w workload, posts []post, tr *tracer) (*replay, *expectation, *checker) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	exp, err := reference(w, in, posts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hostShape(ctx, tr, in, w.shape, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	bodies, err := requestBodies(posts, w.batch)
	if err != nil {
		t.Fatal(err)
	}
	client := newConnClient()
	defer client.CloseIdleConnections()
	sub, err := subscribe(ctx, h.baseURL, exp.SubscribedUser)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(exp)
	tg := target{client: client, baseURL: h.baseURL, alive: func() error { return nil }}
	rp, err := replayRequests(ctx, tg, w, bodies, len(bodies)/checkpointsPerRun, chk)
	frames, serr := sub.finish(len(exp.SSEIDs), 5*time.Second)
	if err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	accepted, rejected, timelines, err := readBack(ctx, tg, len(in.subs))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(frames))
	for i, f := range frames {
		ids[i] = f.id
	}
	chk.finish(accepted, rejected, ids, timelines)
	return rp, exp, chk
}

// Every shape must answer exactly as the reference: this is the claim the
// benchmark's output check rests on, exercised end to end over real sockets.
func TestShapesMatchReference(t *testing.T) {
	in := toyInputs(t, 5)
	for _, w := range []workload{
		{name: "toy-seq", shape: shapeSeq, batch: 1},
		{name: "toy-par-batch", shape: shapePar, batch: 50},
		{name: "toy-router", shape: shapeRouter, batch: 1},
		{name: "toy-paced", shape: shapePar, batch: 1, openLoop: true, postsPerSecond: 5000},
	} {
		t.Run(w.name, func(t *testing.T) {
			rp, exp, chk := replayToy(t, in, w, toyPosts(t, in, 1500), newTracer())
			if chk.failed != 0 {
				t.Fatalf("%d of %d operations failed; first: %s", chk.failed, chk.attempted, chk.first)
			}
			if len(rp.ckpt) != checkpointsPerRun {
				t.Errorf("%d checkpoint calls, want %d", len(rp.ckpt), checkpointsPerRun)
			}
			if len(exp.SSEIDs) == 0 {
				t.Error("the subscribed user expected no frames: the SSE check was vacuous")
			}
		})
	}
}

func TestTracedPassBudgetSumsAndNamesEveryMetric(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	in := toyInputs(t, 9)
	for _, w := range []workload{
		{name: "toy-seq", shape: shapeSeq, batch: 1},
		{name: "toy-router", shape: shapeRouter, batch: 1},
	} {
		t.Run(w.name, func(t *testing.T) {
			posts := toyPosts(t, in, 1500)
			rp, exp, chk := replayToy(t, in, w, posts, newTracer())
			if chk.failed != 0 {
				t.Fatal(chk.first)
			}
			bodies, err := requestBodies(posts, w.batch)
			if err != nil {
				t.Fatal(err)
			}
			e := &env{outDir: t.TempDir(), workDir: t.TempDir(), inputs: in}
			res := &result{workload: w, correct: true, perPostNS: float64(rp.ingestWall) / float64(len(posts))}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := tracedPass(ctx, e, w, posts, bodies, exp, rp, res, loadgenMetrics{}); err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Fatalf("traced pass answers differ from the reference: %s", res.failure)
			}
			sum := 0.0
			for _, row := range res.budget {
				sum += row.ns
			}
			if math.Abs(sum-res.perPostNS) > 1e-6*res.perPostNS {
				t.Errorf("budget rows sum to %.1f ns per post, end to end is %.1f", sum, res.perPostNS)
			}
			if last := res.budget[len(res.budget)-1]; !strings.HasPrefix(last.layer, "nethttp residual") {
				t.Errorf("the last budget row is %q, want the residual", last.layer)
			}
			for _, pm := range bf.PerLayer {
				if m, ok := res.perLayer[pm.Name]; !ok {
					t.Errorf("BENCHMARK.json names per-layer metric %s; the traced pass does not report it", pm.Name)
				} else if m.Unit != pm.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", pm.Name, m.Unit, pm.Unit)
				}
			}
			if len(res.perLayer) != len(bf.PerLayer) {
				t.Errorf("the traced pass reports %d per-layer metrics, BENCHMARK.json lists %d", len(res.perLayer), len(bf.PerLayer))
			}
			if w.shape == shapeRouter && res.perLayer["shard.forward_ns_per_post"].Value <= 0 {
				t.Error("router shape reported no shard forward time")
			}
			if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestBenchmarkFileMatchesWorkloads(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the loadgen has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the loadgen %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		n := w.posts(bf.RunSeconds)
		if n == 0 || n%(w.batch*checkpointsPerRun) != 0 {
			t.Errorf("%s: %d posts do not split into %d checkpoint intervals of whole requests", w.name, n, checkpointsPerRun)
		}
		// The committed golden must cover the run the driver makes.
		if g, ok, err := loadGolden(root, w.name, 1); err != nil || !ok {
			t.Errorf("%s: no committed seed-1 golden (%v)", w.name, err)
		} else if g.Posts != n || g.Workload != w.name || len(g.SSEIDs) == 0 || len(g.Timelines) != timelineUsers {
			t.Errorf("%s: golden covers %d posts of %q with %d SSE ids; run_seconds %d replays %d posts", w.name, g.Posts, g.Workload, len(g.SSEIDs), bf.RunSeconds, n)
		}
	}
	var names []string
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	want := []string{"ack_p50_ms", "ckpt_p50_ms", "delivery_p50_ms", "posts_per_s", "rss_peak_mb", "setup_s"}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json end-to-end metrics %v, the loadgen reports %v", names, want)
	}
}

func TestDeadDaemonFailsWithLogTail(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "firehosed")
	if err := os.WriteFile(script, []byte("#!/bin/sh\necho 'firehosed: boom: bad config' >&2\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	spec := fleetSpec{root: dir, bin: script, followees: "unused", workDir: dir, logDir: dir, tag: "test"}
	start := time.Now()
	_, _, err := bootFleet(ctx, spec, shapeSeq, newConnClient())
	if err == nil {
		t.Fatal("a daemon that exits at once booted")
	}
	if !strings.Contains(err.Error(), "boom: bad config") {
		t.Errorf("the error does not carry the daemon's log tail: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("took %v to notice a dead daemon", time.Since(start))
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 4, 5, 8, 7, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}
