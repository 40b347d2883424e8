package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/metrics"
	"firehose/internal/stream"
)

func scrape(t *testing.T, ts *httptest.Server) (body string, contentType string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), resp.Header.Get("Content-Type")
}

// metricValue extracts the value of the exact series line "name{labels} v"
// (or "name v"); it fails the test when the series is absent.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not found in:\n%s", series, body)
	return 0
}

// promLine matches the text exposition format: a metric name, an optional
// label set, and a float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?[0-9].*|[-+]?Inf)$`)

func checkExpositionFormat(t *testing.T, body string) {
	t.Helper()
	sawHelp, sawType, sawSample := false, false, false
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			sawHelp = true
		case strings.HasPrefix(line, "# TYPE "):
			sawType = true
		default:
			if !promLine.MatchString(line) {
				t.Fatalf("malformed exposition line: %q", line)
			}
			sawSample = true
		}
	}
	if !sawHelp || !sawType || !sawSample {
		t.Fatalf("exposition output incomplete (help=%v type=%v sample=%v)", sawHelp, sawType, sawSample)
	}
}

func TestMetricsEndpointSequential(t *testing.T) {
	ts := newTestServer(t)

	body, contentType := scrape(t, ts)
	if want := "text/plain; version=0.0.4; charset=utf-8"; contentType != want {
		t.Fatalf("Content-Type = %q, want %q", contentType, want)
	}
	checkExpositionFormat(t, body)

	// Before any ingest, everything is zero.
	alg := `algorithm="S_UniBin"`
	if v := metricValue(t, body, `firehose_decisions_total{`+alg+`,result="accepted"}`); v != 0 {
		t.Fatalf("accepted before ingest = %v", v)
	}
	if v := metricValue(t, body, `firehose_decision_latency_seconds_count{`+alg+`}`); v != 0 {
		t.Fatalf("latency count before ingest = %v", v)
	}

	// Ingest posts: 2 accepted (distinct), 1 rejected (near-duplicate from a
	// similar author).
	ingest(t, ts, IngestRequest{Author: 0, Text: "ferry sinks, 300 missing http://t.co/a", TimeMillis: 1000})
	ingest(t, ts, IngestRequest{Author: 1, Text: "ferry sinks, 300 missing http://t.co/b", TimeMillis: 2000})
	ingest(t, ts, IngestRequest{Author: 2, Text: "alibaba files for landmark market listing", TimeMillis: 3000})

	body, _ = scrape(t, ts)
	checkExpositionFormat(t, body)
	if v := metricValue(t, body, `firehose_decisions_total{`+alg+`,result="accepted"}`); v != 2 {
		t.Fatalf("accepted = %v, want 2", v)
	}
	if v := metricValue(t, body, `firehose_decisions_total{`+alg+`,result="rejected"}`); v != 1 {
		t.Fatalf("rejected = %v, want 1", v)
	}
	if v := metricValue(t, body, `firehose_decision_latency_seconds_count{`+alg+`}`); v != 3 {
		t.Fatalf("latency count = %v, want 3", v)
	}
	if v := metricValue(t, body, `firehose_decision_latency_seconds_bucket{`+alg+`,le="+Inf"}`); v != 3 {
		t.Fatalf("+Inf bucket = %v, want 3", v)
	}
	if v := metricValue(t, body, `firehose_decision_latency_seconds_sum{`+alg+`}`); v <= 0 {
		t.Fatalf("latency sum = %v, want > 0", v)
	}
	if v := metricValue(t, body, `firehose_comparisons_total{`+alg+`}`); v <= 0 {
		t.Fatalf("comparisons = %v, want > 0", v)
	}
	if v := metricValue(t, body, `firehose_stored_copies_peak{`+alg+`}`); v <= 0 {
		t.Fatalf("peak copies = %v, want > 0", v)
	}
	if v := metricValue(t, body, "firehose_sse_subscribers"); v != 0 {
		t.Fatalf("sse subscribers = %v, want 0", v)
	}

	// Sequential servers expose no per-worker series.
	if strings.Contains(body, "firehose_worker_queue_depth") {
		t.Fatal("sequential server exposes worker series")
	}
}

// TestCheckpointMetrics: every Snapshot observes its ingest pause, and the
// bytes gauge reports the size of the last successful one.
func TestCheckpointMetrics(t *testing.T) {
	g := authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1}, {2}}, th)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(md)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	body, _ := scrape(t, ts)
	if v := metricValue(t, body, "firehose_checkpoint_pause_seconds_count"); v != 0 {
		t.Fatalf("pause count before any checkpoint = %v", v)
	}
	if v := metricValue(t, body, "firehose_checkpoint_bytes"); v != 0 {
		t.Fatalf("bytes before any checkpoint = %v", v)
	}

	ingest(t, ts, IngestRequest{Author: 0, Text: "ferry sinks, 300 missing http://t.co/a", TimeMillis: 1000})
	var small, large bytes.Buffer
	if err := srv.Snapshot(&small); err != nil {
		t.Fatal(err)
	}
	ingest(t, ts, IngestRequest{Author: 2, Text: "alibaba files for landmark market listing", TimeMillis: 2000})
	if err := srv.Snapshot(&large); err != nil {
		t.Fatal(err)
	}
	if large.Len() <= small.Len() {
		t.Fatalf("second snapshot (%d B) should outgrow the first (%d B)", large.Len(), small.Len())
	}
	// A failing writer still pauses ingest, so it is observed, but the
	// gauge keeps the last successful size.
	if err := srv.Snapshot(failingWriter{}); err == nil {
		t.Fatal("snapshot into a failing writer succeeded")
	}

	body, _ = scrape(t, ts)
	checkExpositionFormat(t, body)
	if v := metricValue(t, body, "firehose_checkpoint_pause_seconds_count"); v != 3 {
		t.Fatalf("pause count = %v, want 3", v)
	}
	if v := metricValue(t, body, `firehose_checkpoint_pause_seconds_bucket{le="+Inf"}`); v != 3 {
		t.Fatalf("pause +Inf bucket = %v, want 3", v)
	}
	if v := metricValue(t, body, "firehose_checkpoint_pause_seconds_sum"); v <= 0 {
		t.Fatalf("pause sum = %v, want > 0", v)
	}
	if v := metricValue(t, body, "firehose_checkpoint_bytes"); v != float64(large.Len()) {
		t.Fatalf("bytes gauge = %v, want %d", v, large.Len())
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func newParallelTestServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	// Two disjoint author components {0,1} and {2,3}; users follow one each.
	g := authorsim.NewGraph(4, []authorsim.SimPair{{A: 0, B: 1}, {A: 2, B: 3}}, 0.7)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	pe, err := stream.NewParallelMultiEngine(core.AlgUniBin, g, [][]int32{{0, 1}, {2, 3}}, th, workers)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewParallel(pe)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func TestMetricsEndpointParallel(t *testing.T) {
	ts := newParallelTestServer(t, 2)

	texts := []string{
		"ferry sinks off southern coast rescue underway",
		"alibaba files landmark technology listing today",
		"wildfire spreads across northern hills evacuations",
		"senate passes budget amendment after marathon session",
	}
	n := 0
	for round := 0; round < 3; round++ {
		for a := int32(0); a < 4; a++ {
			n++
			resp, _ := ingest(t, ts, IngestRequest{Author: a, Text: texts[a], TimeMillis: int64(1000 * n)})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest %d: status %d", n, resp.StatusCode)
			}
		}
	}

	body, _ := scrape(t, ts)
	checkExpositionFormat(t, body)

	// Engine-level decision counts cover every post.
	alg := `algorithm="S_UniBin"`
	accepted := metricValue(t, body, `firehose_decisions_total{`+alg+`,result="accepted"}`)
	rejected := metricValue(t, body, `firehose_decisions_total{`+alg+`,result="rejected"}`)
	if accepted+rejected != float64(n) {
		t.Fatalf("accepted+rejected = %v, want %d", accepted+rejected, n)
	}
	if v := metricValue(t, body, `firehose_decision_latency_seconds_count{`+alg+`}`); v != float64(n) {
		t.Fatalf("latency count = %v, want %d", v, n)
	}

	// Per-worker series exist with drained queues, and per-worker decision
	// counts sum to the engine totals.
	var workerTotal float64
	for w := 0; w < 2; w++ {
		lbl := `worker="` + strconv.Itoa(w) + `"`
		if v := metricValue(t, body, `firehose_worker_queue_depth{`+lbl+`}`); v != 0 {
			t.Fatalf("worker %d queue depth = %v after ingest settled", w, v)
		}
		if v := metricValue(t, body, `firehose_worker_queue_capacity{`+lbl+`}`); v != float64(stream.DefaultQueueDepth) {
			t.Fatalf("worker %d queue capacity = %v", w, v)
		}
		if v := metricValue(t, body, `firehose_worker_queue_wait_seconds_count{`+lbl+`}`); v != float64(n)/2 {
			t.Fatalf("worker %d queue wait count = %v, want %d", w, v, n/2)
		}
		workerTotal += metricValue(t, body, `firehose_worker_decisions_total{`+lbl+`,result="accepted"}`)
		workerTotal += metricValue(t, body, `firehose_worker_decisions_total{`+lbl+`,result="rejected"}`)
	}
	if workerTotal != float64(n) {
		t.Fatalf("sum of worker decisions = %v, want %d", workerTotal, n)
	}

	// The parallel adapter serves timelines: user 0 received the accepted
	// posts from component {0,1}.
	r, err := http.Get(ts.URL + "/v1/timeline?user=0")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(raw), "ferry sinks") {
		t.Fatalf("parallel timeline missing delivered post: %s", raw)
	}
}

// TestTimelineGauges: both engines that own a timeline store expose its size
// — each delivered post once, one entry per (post, user) delivery, and the
// bytes the store retains — and the gauges drop to zero when a restore
// empties the store. An engine
// without a store (the shard router's shape) exposes neither.
func TestTimelineGauges(t *testing.T) {
	scrapeServer := func(s *Server) string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
		return rec.Body.String()
	}
	for _, parallel := range []bool{false, true} {
		srv, _ := serverPair(t, parallel)
		var ckpt bytes.Buffer
		if err := srv.Snapshot(&ckpt); err != nil {
			t.Fatal(err)
		}
		var posts, entries float64
		count := func(users []int32) {
			if len(users) > 0 {
				posts++
				entries += float64(len(users))
			}
		}
		texts := []string{"ferry sinks off the coast", "alibaba files for listing", "wildfire spreads north"}
		for i := 0; i < 6; i++ {
			rec := postJSON(t, srv, "/v1/ingest",
				fmt.Sprintf(`{"author":%d,"text":%q,"timeMillis":%d}`, i%4, texts[i%3], 1000*(i+1)))
			var out IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			count(out.Delivered)
		}
		rec := postJSON(t, srv, "/v1/ingest/batch", `{"posts":[`+
			`{"author":3,"text":"senate passes the budget","timeMillis":9000},`+
			`{"author":0,"text":"markets rally on rate cut","timeMillis":9001}]}`)
		var br BatchIngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			t.Fatal(err)
		}
		for _, r := range br.Results {
			count(r.Delivered)
		}
		if entries <= posts {
			t.Fatalf("parallel=%v: %v deliveries of %v posts; the test wants posts reaching several users", parallel, entries, posts)
		}

		body := scrapeServer(srv)
		checkExpositionFormat(t, body)
		if v := metricValue(t, body, "firehose_timeline_posts"); v != posts {
			t.Fatalf("parallel=%v: firehose_timeline_posts = %v, want %v", parallel, v, posts)
		}
		if v := metricValue(t, body, "firehose_timeline_entries"); v != entries {
			t.Fatalf("parallel=%v: firehose_timeline_entries = %v, want %v", parallel, v, entries)
		}
		_, _, bytes := srv.engine.(timelineSizer).TimelineSize()
		if v := metricValue(t, body, "firehose_timeline_bytes"); v != float64(bytes) || v == 0 {
			t.Fatalf("parallel=%v: firehose_timeline_bytes = %v, want the store's %d", parallel, v, bytes)
		}

		if err := srv.Restore(&ckpt); err != nil {
			t.Fatal(err)
		}
		body = scrapeServer(srv)
		for _, series := range []string{"firehose_timeline_posts", "firehose_timeline_entries", "firehose_timeline_bytes"} {
			if v := metricValue(t, body, series); v != 0 {
				t.Fatalf("parallel=%v: %s = %v after restore, want 0", parallel, series, v)
			}
		}
		srv.Close()
	}

	seq, _ := serverPair(t, false)
	fe := &failOnceEngine{Engine: seq.engine}
	fe.failed.Store(true)
	storeless := NewFromEngine(fe)
	if body := scrapeServer(storeless); strings.Contains(body, "firehose_timeline_") {
		t.Fatal("an engine without a timeline store exposes firehose_timeline_* gauges")
	}
}

// TestGoMemoryGauges: every server exports the process's Go memory as
// gauges that parse as byte counts in a plausible order (live ≤ goal,
// live ≤ everything the runtime mapped).
func TestGoMemoryGauges(t *testing.T) {
	body, _ := scrape(t, newTestServer(t))
	checkExpositionFormat(t, body)
	live := metricValue(t, body, "firehose_go_heap_live_bytes")
	goal := metricValue(t, body, "firehose_go_heap_goal_bytes")
	total := metricValue(t, body, "firehose_go_memory_total_bytes")
	for _, family := range []string{"firehose_go_heap_live_bytes", "firehose_go_heap_goal_bytes", "firehose_go_memory_total_bytes"} {
		if !strings.Contains(body, "# TYPE "+family+" gauge\n") {
			t.Fatalf("%s is not declared a gauge", family)
		}
	}
	if goal <= 0 || total <= 0 || live > goal || live > total {
		t.Fatalf("live %v, goal %v, total %v bytes: want 0 ≤ live ≤ goal, live ≤ total, goal and total > 0", live, goal, total)
	}
}

func TestPProfDisabledByDefault(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: status %d", resp.StatusCode)
	}
}

func TestPProfOptIn(t *testing.T) {
	g := authorsim.NewGraph(2, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1}}, th)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(md)
	srv.EnablePProf()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
}

// countingEngine counts the Counters snapshots and the timeline-store reads
// taken of the engine it wraps, which must own a timeline store.
type countingEngine struct {
	Engine
	calls atomic.Int64
	sizes atomic.Int64
}

func (e *countingEngine) Counters() metrics.Counters {
	e.calls.Add(1)
	return e.Engine.Counters()
}

func (e *countingEngine) TimelineSize() (posts, entries, bytes uint64) {
	e.sizes.Add(1)
	return e.Engine.(timelineSizer).TimelineSize()
}

// TestMetricsScrapeReadsCountersOnce: the seven engine-counter families share
// one Counters snapshot per scrape. On a router each snapshot is a GET per
// worker, so a snapshot per family multiplied the fan-out and let the
// families disagree about the instant they report. Likewise the three
// timeline gauges share one TimelineSize read, which takes every worker's
// decision lock.
func TestMetricsScrapeReadsCountersOnce(t *testing.T) {
	g := authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1}, {2}}, th)
	if err != nil {
		t.Fatal(err)
	}
	eng := &countingEngine{Engine: stream.NewMultiEngine(md)}
	ts := httptest.NewServer(NewFromEngine(eng))
	t.Cleanup(ts.Close)
	ingest(t, ts, IngestRequest{Author: 0, Text: "ferry sinks, 300 missing", TimeMillis: 1000})
	for scrapes := int64(1); scrapes <= 3; scrapes++ {
		before := eng.calls.Load()
		sizesBefore := eng.sizes.Load()
		body, _ := scrape(t, ts)
		if got := eng.calls.Load() - before; got != 1 {
			t.Fatalf("scrape %d read the engine's Counters %d times, want 1", scrapes, got)
		}
		if got := eng.sizes.Load() - sizesBefore; got != 1 {
			t.Fatalf("scrape %d read the timeline store %d times, want 1", scrapes, got)
		}
		if v := metricValue(t, body, "firehose_timeline_posts"); v != 1 {
			t.Fatalf("firehose_timeline_posts = %v, want 1", v)
		}
		if v := metricValue(t, body, `firehose_decisions_total{algorithm="S_UniBin",result="accepted"}`); v != 1 {
			t.Fatalf("accepted = %v, want 1", v)
		}
		if v := metricValue(t, body, `firehose_decision_latency_seconds_count{algorithm="S_UniBin"}`); v != 1 {
			t.Fatalf("latency count = %v, want 1", v)
		}
	}
}
