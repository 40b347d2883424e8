package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

const (
	workloadDeadline = 120 * time.Second // hard limit for one workload, set-up included
	setupBoots       = 5                 // boots per run; setup_s is their median
	deliveryLimit    = 25 * time.Millisecond
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome: the line the benchmark contract asks for
// plus what the human-readable report prints.
type result struct {
	workload  workload
	seed      int64
	posts     int
	correct   bool
	attempted int
	failed    int
	failure   string // first failed check, "" when none
	golden    string // how the committed golden was used
	endToEnd  map[string]metric
	perLayer  map[string]metric // only after a traced pass
	samples   map[string]int    // sample count behind each percentile
	budget    []budgetRow       // only after a traced pass
	// intervalRates is posts per second within each checkpoint interval.
	intervalRates []float64
	perPostNS     float64 // 1e9 / posts_per_s
}

// env is what every workload of one invocation shares.
type env struct {
	root    string
	outDir  string // bench/out: logs and traces survive the run
	workDir string // per-invocation scratch inside outDir, removed at exit
	bin     string
	seconds int
	trace   bool
	inputs  *inputs
}

// quantile returns the q-quantile of xs (nearest rank on the sorted copy).
func quantile[T float64 | time.Duration](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload boots the workload's shape, replays its fixed post prefix
// against the real daemon with tracing off, verifies every output and
// returns the end-to-end metrics. With e.trace it then runs the traced
// in-process pass for the per-layer metrics.
func runWorkload(ctx context.Context, e *env, w workload) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, workloadDeadline)
	defer cancel()

	stream, err := e.inputs.stream(w.stream)
	if err != nil {
		return nil, err
	}
	n := w.posts(e.seconds)
	if n == 0 || n > len(stream) {
		return nil, fmt.Errorf("%s: -seconds %d asks for %d posts; the %s stream has %d", w.name, e.seconds, n, w.stream.name, len(stream))
	}
	posts := stream[:n]
	bodies, err := requestBodies(posts, w.batch)
	if err != nil {
		return nil, err
	}
	exp, err := reference(w, e.inputs, posts)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w, seed: e.inputs.seed, posts: n, samples: make(map[string]int)}
	var goldenErr error // the reference departs from the committed golden
	if g, ok, err := loadGolden(e.root, w.name, e.inputs.seed); err != nil {
		return nil, err
	} else if !ok {
		res.golden = "no committed golden for this seed: checked against the in-process reference"
	} else if g.Posts != n {
		res.golden = fmt.Sprintf("committed golden covers %d posts, this run %d: checked against the in-process reference", g.Posts, n)
	} else if diff := diffGolden(g, exp.golden); diff != "" {
		res.golden = "MISMATCH with " + goldenPath(e.root, w.name, e.inputs.seed) + ": " + diff
		goldenErr = errors.New(res.golden)
	} else {
		res.golden = "in-process reference matches the committed golden"
	}

	spec := fleetSpec{
		root:      e.root,
		bin:       e.bin,
		followees: e.inputs.followeesPath,
		workDir:   e.workDir,
		logDir:    e.outDir,
		tag:       w.name,
	}
	client := newConnClient()
	defer client.CloseIdleConnections()

	// Set-up several times, so setup_s is a median; the last fleet serves.
	var setups []time.Duration
	var fl *fleet
	for i := 0; i < setupBoots; i++ {
		if fl != nil {
			client.CloseIdleConnections()
			fl.stop()
		}
		var d time.Duration
		if fl, d, err = bootFleet(ctx, spec, w.shape, client); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	defer fl.stop()
	tg := target{client: client, baseURL: fl.baseURL, alive: fl.exitedDaemon}

	sub, err := subscribe(ctx, fl.baseURL, exp.SubscribedUser)
	if err != nil {
		return nil, err
	}
	chk := newChecker(exp)
	rp, runErr := replayRequests(ctx, tg, w, bodies, len(bodies)/checkpointsPerRun, chk)
	frames, sseErr := sub.finish(len(exp.SSEIDs), 5*time.Second)
	if runErr != nil {
		return nil, runErr
	}
	if sseErr != nil {
		chk.op(sseErr)
	}
	accepted, rejected, timelines, err := readBack(ctx, tg, len(e.inputs.subs))
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(frames))
	for i, f := range frames {
		ids[i] = f.id
	}
	chk.finish(accepted, rejected, ids, timelines)
	if goldenErr != nil {
		chk.op(goldenErr)
	}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Delivery latency: send (open loop: due) of the request that carried
	// the post → its SSE frame parsed.
	var delivery []time.Duration
	for _, f := range frames {
		if f.id >= 1 && int(f.id) <= n {
			delivery = append(delivery, f.at.Sub(rp.sent[(int(f.id)-1)/w.batch]))
		}
	}
	// Throughput per checkpoint interval, for the report: a stall shows as
	// one slow interval instead of dissolving into the mean.
	every := len(bodies) / checkpointsPerRun
	for k, prev := 1, time.Duration(0); k <= checkpointsPerRun; k++ {
		end := rp.prefixWall[k*every-1]
		res.intervalRates = append(res.intervalRates, float64(every*w.batch)/(end-prev).Seconds())
		prev = end
	}
	wall := rp.ingestWall
	if w.openLoop {
		// The achieved rate of a schedule: checkpoint stalls are the point.
		wall = rp.sent[len(bodies)-1].Add(rp.ack[len(bodies)-1]).Sub(rp.start)
	}
	res.attempted, res.failed, res.failure = chk.attempted, chk.failed, chk.first
	res.correct = chk.failed == 0
	res.perPostNS = float64(wall) / float64(n)
	res.endToEnd = map[string]metric{
		"setup_s":         {quantile(setups, 0.5).Seconds(), "s"},
		"posts_per_s":     {float64(n) / wall.Seconds(), "1/s"},
		"ack_p50_ms":      {ms(quantile(rp.ack, 0.5)), "ms"},
		"delivery_p50_ms": {ms(quantile(delivery, 0.5)), "ms"},
		"ckpt_p50_ms":     {ms(quantile(rp.ckpt, 0.5)), "ms"},
		"rss_peak_mb":     {rss, "MB"},
	}
	res.samples["setup_s"] = len(setups)
	res.samples["ack_p50_ms"] = len(rp.ack)
	res.samples["delivery_p50_ms"] = len(delivery)
	res.samples["ckpt_p50_ms"] = len(rp.ckpt)

	if e.trace {
		within := 0
		for _, d := range delivery {
			if d <= deliveryLimit {
				within++
			}
		}
		lg := loadgenMetrics{
			ackP99:      ms(quantile(rp.ack, 0.99)),
			deliveryP95: ms(quantile(delivery, 0.95)),
			withinShare: float64(within) / float64(max(len(delivery), 1)),
			lateP99:     ms(quantile(rp.late, 0.99)),
			genSeconds:  e.inputs.genSeconds,
		}
		if lg.sseDropped, err = sseDropped(ctx, tg); err != nil {
			return nil, err
		}
		fl.stop() // free the cores before the in-process pass
		if err := tracedPass(ctx, e, w, posts, bodies, exp, rp, res, lg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// newEnv prepares bench/out, builds the daemon and generates the seed's
// inputs. cleanup removes the per-invocation scratch directory.
func newEnv(ctx context.Context, seed int64, seconds int, trace bool) (e *env, cleanup func(), err error) {
	root, err := repoRoot()
	if err != nil {
		return nil, nil, err
	}
	e = &env{root: root, outDir: filepath.Join(root, "bench", "out"), seconds: seconds, trace: trace}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	if e.workDir, err = os.MkdirTemp(e.outDir, "run-"); err != nil {
		return nil, nil, err
	}
	cleanup = func() { _ = os.RemoveAll(e.workDir) } // scratch only; a leftover is harmless and ignored by git
	if e.bin, err = buildDaemon(ctx, root, e.workDir); err != nil {
		cleanup()
		return nil, nil, err
	}
	if e.inputs, err = generateInputs(seed, e.workDir, numAuthors); err != nil {
		cleanup()
		return nil, nil, err
	}
	return e, cleanup, nil
}
