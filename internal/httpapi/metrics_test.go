package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
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
