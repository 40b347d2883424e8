package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"firehose/internal/checkpoint"
	"firehose/internal/connector"
	"firehose/internal/core"
	"firehose/internal/httpapi"
	"firehose/internal/metrics"
	"firehose/internal/shard"
	"firehose/internal/stream"
)

// This file is the traced pass: the workload's deployment shape hosted
// in-process from the same public constructors cmd/firehosed calls, with a
// span wrapper at every interface seam between the layers. The daemon itself
// is not instrumented — spans are recorded from the benchmark's own files,
// around the calls into each layer.

// span is one timed interval at a layer boundary. Spans of one request share
// its request index; Parent is the index of the enclosing span, -1 for the
// client's root span.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. One request is in flight
// at a time and every layer finishes before its caller does, so the open
// spans form a stack even across the goroutines a request passes through:
// the span open when another begins is its parent.
type tracer struct {
	t0 time.Time
	// off makes begin and end no-ops: the same wrappers, hosting and client
	// without the recording, which is the baseline the tracing overhead is
	// measured against.
	off bool

	// mu protects spans, open and request: a request crosses goroutines.
	mu      sync.Mutex
	spans   []span
	open    []int
	request int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), request: -1} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t.off {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	t.spans = append(t.spans, span{Name: name, Request: t.request, Parent: parent, StartNS: now})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// beginRequest opens the client's root span for the next request.
func (t *tracer) beginRequest(name string) int {
	if t.off {
		return -1
	}
	t.mu.Lock()
	t.request++
	t.mu.Unlock()
	return t.begin(name)
}

func (t *tracer) end(i int) {
	if t.off {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNS = now
	for k := len(t.open) - 1; k >= 0; k-- {
		if t.open[k] == i {
			t.open = append(t.open[:k], t.open[k+1:]...)
			break
		}
	}
}

// selfTimes sums, per span name, each span's duration minus its children's,
// over the requests whose root span is named root.
func (t *tracer) selfTimes(root string) (self map[string]int64, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	// A parent always precedes its children, so one forward sweep resolves
	// every span's root.
	rootName := make([]string, len(t.spans))
	self = make(map[string]int64)
	count = make(map[string]int)
	for i, s := range t.spans {
		if rootName[i] = s.Name; s.Parent >= 0 {
			rootName[i] = rootName[s.Parent]
		}
		if rootName[i] != root {
			continue
		}
		self[s.Name] += s.EndNS - s.StartNS - children[i]
		count[s.Name]++
	}
	return self, count
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names. Each is one budget row; the client's root spans are not rows —
// their self time is part of the residual.
const (
	spanIngest     = "request.ingest"     // client root: one ingest request
	spanCheckpoint = "request.checkpoint" // client root: one admin checkpoint call
	spanHTTPAPI    = "httpapi"            // the front server's handler
	spanStream     = "stream"             // the engine behind httpapi.Engine
	spanCore       = "core"               // the solver behind core.MultiDiversifier
	spanConnector  = "connector"          // the delivery hook: dispatcher fan-out
	spanSSE        = "httpapi.sse"        // the sse output's publish into the broker
	spanRouter     = "shard.router"       // shard.Router behind httpapi.Engine
	spanForward    = "shard.forward"      // the router's HTTP round trip to a worker
	spanWorker     = "shard.worker"       // a shard worker's handler
)

// spanMD wraps the core.MultiDiversifier seam.
type spanMD struct {
	inner core.MultiDiversifier
	tr    *tracer
}

func (m *spanMD) Offer(p *core.Post) []int32 {
	sp := m.tr.begin(spanCore)
	users := m.inner.Offer(p)
	m.tr.end(sp)
	return users
}
func (m *spanMD) Counters() *metrics.Counters { return m.inner.Counters() }
func (m *spanMD) Name() string                { return m.inner.Name() }
func (m *spanMD) SnapshotState(enc *checkpoint.Encoder) error {
	return m.inner.(core.StateSnapshotter).SnapshotState(enc)
}
func (m *spanMD) RestoreState(dec *checkpoint.Decoder) error {
	return m.inner.(core.StateSnapshotter).RestoreState(dec)
}

// spanEngine wraps the httpapi.Engine seam.
type spanEngine struct {
	inner httpapi.Engine
	tr    *tracer
	name  string
}

func (e *spanEngine) Offer(p *core.Post) ([]int32, error) {
	sp := e.tr.begin(e.name)
	users, err := e.inner.Offer(p)
	e.tr.end(sp)
	return users, err
}
func (e *spanEngine) OfferBatch(posts []*core.Post) ([][]int32, error) {
	sp := e.tr.begin(e.name)
	users, err := e.inner.OfferBatch(posts)
	e.tr.end(sp)
	return users, err
}
func (e *spanEngine) Timeline(user int32) []*core.Post { return e.inner.Timeline(user) }
func (e *spanEngine) Counters() metrics.Counters       { return e.inner.Counters() }
func (e *spanEngine) Name() string                     { return e.inner.Name() }
func (e *spanEngine) Close()                           { e.inner.Close() }
func (e *spanEngine) SnapshotState(enc *checkpoint.Encoder) error {
	return e.inner.(core.StateSnapshotter).SnapshotState(enc)
}
func (e *spanEngine) RestoreState(dec *checkpoint.Decoder) error {
	return e.inner.(core.StateSnapshotter).RestoreState(dec)
}

// spanHandler wraps the http.Handler seam. The SSE stream is not a request
// of the ingest connection and stays outside the span stack.
func spanHandler(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stream" {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin(name)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// spanTransport wraps the RouterOptions.Client seam and counts the bytes the
// router moves to and from its workers.
type spanTransport struct {
	tr    *tracer
	inner http.RoundTripper

	// mu protects bytes.
	mu    sync.Mutex
	bytes int64
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := t.tr.begin(spanForward)
	resp, err := t.inner.RoundTrip(r)
	t.tr.end(sp)
	if err == nil {
		t.mu.Lock()
		t.bytes += max(r.ContentLength, 0) + max(resp.ContentLength, 0)
		t.mu.Unlock()
	}
	return resp, err
}

func (t *spanTransport) moved() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// hosted is one deployment shape running inside the loadgen.
type hosted struct {
	baseURL string
	front   *httpapi.Server // the server the client talks to
	state   *httpapi.Server // a server holding solver state (router shape: worker 0)
	// freshState builds an empty server of state's construction, for the
	// restore stage.
	freshState func() (*httpapi.Server, error)
	transport  *spanTransport // router shape only
	closers    []func()
}

func (h *hosted) close() {
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
}

// wireEgress mounts the delivery path cmd/firehosed mounts — delivery hook →
// connector dispatcher → sse output → broker — with a span around the hook
// and around the publish, and arms the admin checkpoint endpoint.
func wireEgress(tr *tracer, api *httpapi.Server, ckptDir string) error {
	out, err := connector.NewSSEOutput(func(d connector.Delivery) {
		sp := tr.begin(spanSSE)
		api.PublishSSE(httpapi.TimelinePost{ID: d.ID, Author: d.Author, TimeMillis: d.TimeMillis, Text: d.Text}, d.Users)
		tr.end(sp)
	})
	if err != nil {
		return err
	}
	dispatch := connector.NewDispatcher()
	dispatch.Add("sse", out)
	if err := dispatch.Connect(context.Background()); err != nil {
		return err
	}
	api.SetDeliveryHook(func(p httpapi.TimelinePost, users []int32) {
		sp := tr.begin(spanConnector)
		dispatch.Dispatch(context.Background(), connector.Delivery{ID: p.ID, Author: p.Author, TimeMillis: p.TimeMillis, Text: p.Text, Users: users})
		tr.end(sp)
	})
	m, err := checkpoint.NewManager(ckptDir, 2, api.Snapshot)
	if err != nil {
		return err
	}
	api.EnableCheckpoints(m)
	return nil
}

// newSolverServer builds a sequential server — solver, stream engine, HTTP
// surface — with spans at both engine seams.
func newSolverServer(tr *tracer, in *inputs) (*httpapi.Server, error) {
	md, err := newSolver(in)
	if err != nil {
		return nil, err
	}
	eng := stream.NewMultiEngine(&spanMD{inner: md, tr: tr})
	return httpapi.NewFromEngine(&spanEngine{inner: eng, tr: tr, name: spanStream}), nil
}

// hostShape builds the shape in-process over httptest listeners.
func hostShape(ctx context.Context, tr *tracer, in *inputs, s shape, dir string) (_ *hosted, err error) {
	h := &hosted{}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	serve := func(name string, api *httpapi.Server) string {
		ts := httptest.NewServer(spanHandler(tr, name, api))
		h.closers = append(h.closers, ts.Close, api.Close)
		return ts.URL
	}
	ckptDir := func(name string) (string, error) { return os.MkdirTemp(dir, name+"-ckpt-") }
	var rt *shard.Router
	var front *httpapi.Server // the server the client talks to
	switch s {
	case shapeSeq:
		api, err := newSolverServer(tr, in)
		if err != nil {
			return nil, err
		}
		front, h.state = api, api
		h.freshState = func() (*httpapi.Server, error) { return newSolverServer(tr, in) }
	case shapePar:
		// httpapi.NewParallel takes the concrete engine: no seam to wrap, so
		// the handler span covers httpapi + stream + core and the direct
		// stage calls split it.
		pe, err := newParallel(in)
		if err != nil {
			return nil, err
		}
		api := httpapi.NewParallel(pe)
		front, h.state = api, api
		h.freshState = func() (*httpapi.Server, error) {
			pe, err := newParallel(in)
			if err != nil {
				return nil, err
			}
			return httpapi.NewParallel(pe), nil
		}
	case shapeRouter:
		assign, err := shard.Plan(in.graph, 2)
		if err != nil {
			return nil, err
		}
		peers := make([]string, 2)
		for i := range peers {
			api, err := newSolverServer(tr, in)
			if err != nil {
				return nil, err
			}
			wdir, err := ckptDir(fmt.Sprintf("worker%d", i))
			if err != nil {
				return nil, err
			}
			wk, err := shard.NewWorker(shard.WorkerOptions{Server: api, Shard: i, Assignment: assign, CheckpointDir: wdir, Retain: 2})
			if err != nil {
				return nil, err
			}
			h.closers = append(h.closers, func() { _ = wk.Close() }) // closing twice is the only failure
			peers[i] = serve(spanWorker, api)
			if i == 0 {
				h.state = api
			}
		}
		h.freshState = func() (*httpapi.Server, error) {
			api, err := newSolverServer(tr, in)
			if err == nil {
				api.SetTopology(0, assign.NumShards(), assign.Digest())
			}
			return api, err
		}
		h.transport = &spanTransport{tr: tr, inner: &http.Transport{MaxIdleConnsPerHost: 2}}
		if rt, err = shard.NewRouter(shard.RouterOptions{Peers: peers, Assignment: assign, Client: &http.Client{Transport: h.transport}}); err != nil {
			return nil, err
		}
		if err := rt.AwaitPeers(ctx); err != nil {
			return nil, err
		}
		api := httpapi.NewFromEngine(&spanEngine{inner: rt, tr: tr, name: spanRouter})
		api.SetTopology(-1, assign.NumShards(), assign.Digest())
		api.SetTopologyProvider(rt.Topology)
		front = api
	default:
		return nil, fmt.Errorf("unknown shape %q", s)
	}
	dirFront, err := ckptDir("front")
	if err != nil {
		return nil, err
	}
	if err := wireEgress(tr, front, dirFront); err != nil {
		return nil, err
	}
	if rt != nil {
		// As in the daemon: seed every worker's rollback target before traffic.
		if err := rt.InitialCoordination(); err != nil {
			return nil, err
		}
	}
	h.baseURL = serve(spanHTTPAPI, front)
	return h, nil
}

// budgetRow is one line of the per-layer budget: nanoseconds per post.
type budgetRow struct {
	layer string
	ns    float64
}

// loadgenMetrics are the generator-side numbers of the end-to-end pass that
// are too noisy, or too much about the generator, to be end-to-end metrics.
type loadgenMetrics struct {
	ackP99, deliveryP95, withinShare, lateP99, genSeconds float64
	sseDropped                                            float64 // the daemon's dropped-event counter
}

// sseDropped reads the daemon's dropped-event counter off /v1/metrics.
func sseDropped(ctx context.Context, tg target) (float64, error) {
	data, _, err := do(ctx, tg.client, http.MethodGet, tg.baseURL+"/v1/metrics", nil)
	if err != nil {
		return 0, err
	}
	return promValue(string(data), "firehose_sse_events_dropped_total")
}

// tracedPass replays the first 20% of the workload (three of its fifteen
// checkpoint intervals) against the in-process shape with spans on, runs the
// direct stage calls for the seams that are concrete, and fills in
// res.perLayer and res.budget.
func tracedPass(ctx context.Context, e *env, w workload, posts []post, bodies [][]byte, exp *expectation, rp *replay, res *result, lg loadgenMetrics) error {
	every := len(bodies) / checkpointsPerRun
	prefixReqs := 3 * every
	prefix := posts[:prefixReqs*w.batch]

	dir, err := os.MkdirTemp(e.workDir, "trace-")
	if err != nil {
		return err
	}
	// Twice in-process: first with the recording off — the baseline for the
	// tracing overhead — then with it on.
	baseline, hb, err := inProcessPass(ctx, e, w, bodies[:prefixReqs], every, exp, res, &tracer{off: true}, dir)
	if err != nil {
		return err
	}
	hb.close()
	tr := newTracer()
	trp, h, err := inProcessPass(ctx, e, w, bodies[:prefixReqs], every, exp, res, tr, dir)
	if err != nil {
		return err
	}
	defer h.close()
	if err := tr.write(filepath.Join(e.outDir, "trace-"+w.name+".json")); err != nil {
		return err
	}

	st, err := stageCalls(ctx, e.inputs, prefix, h, dir)
	if err != nil {
		return err
	}

	// The budget: per-layer self times per post from the ingest requests'
	// spans, the concrete seams split out by the direct calls, and whatever
	// the end-to-end per-post time leaves unexplained as its own row.
	self, count := tr.selfTimes(spanIngest)
	np := float64(len(prefix))
	perPost := func(name string) float64 { return float64(self[name]) / np }
	fingerprint := st.tokensNS + st.hashNS
	rows := []budgetRow{
		{"textnorm", st.tokensNS},
		{"simhash", st.hashNS},
	}
	httpapiNS := perPost(spanHTTPAPI) - fingerprint
	switch w.shape {
	case shapeSeq:
		rows = append(rows, budgetRow{"stream", perPost(spanStream)}, budgetRow{"core", perPost(spanCore)})
	case shapePar:
		engine := st.parOfferNS
		if w.batch > 1 {
			engine = st.parBatchNS
		}
		httpapiNS -= engine
		// Wall time: the two workers decide in parallel, so the solver's own
		// CPU time (core.offer_ns_per_post) can exceed this row.
		rows = append(rows, budgetRow{"stream + core (parallel engine, wall)", engine})
	case shapeRouter:
		// The worker fingerprints the forwarded text a second time.
		rows[0].ns, rows[1].ns = 2*st.tokensNS, 2*st.hashNS
		rows = append(rows,
			budgetRow{"shard (router + forward)", perPost(spanRouter) + perPost(spanForward)},
			budgetRow{"shard (worker handler)", perPost(spanWorker) - fingerprint},
			budgetRow{"stream", perPost(spanStream)},
			budgetRow{"core", perPost(spanCore)})
	}
	rows = append(rows,
		budgetRow{"httpapi", httpapiNS},
		budgetRow{"connector", perPost(spanConnector)},
		budgetRow{"httpapi (sse publish)", perPost(spanSSE)})
	total := res.perPostNS
	if w.openLoop {
		// An open loop's per-post time is its schedule; what the requests
		// did not occupy is idle, not cost.
		rows = append(rows, budgetRow{"schedule idle", total - meanNS(rp.service)/float64(w.batch)})
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
	}
	residual := total - sum
	res.budget = append(rows, budgetRow{"nethttp residual (loopback + net/http + client)", residual})

	deliveries := float64(max(count[spanConnector], 1))
	untraced, traced := float64(baseline.ingestWall), float64(trp.ingestWall)
	if w.openLoop {
		// Both passes follow the same schedule; compare what a request cost.
		untraced, traced = meanNS(baseline.service), meanNS(trp.service)
	}
	var forwardNS, forwardBytes, coordinateMS float64
	if w.shape == shapeRouter {
		forwardNS = perPost(spanRouter) + perPost(spanForward)
		forwardBytes = float64(st.forwardBytes) / np
		coordinateMS = ms(quantile(trp.ckpt, 0.5))
	}
	m := func(v float64, unit string) metric { return metric{v, unit} }
	res.perLayer = map[string]metric{
		"textnorm.tokens_ns_per_post":         m(st.tokensNS, "ns"),
		"simhash.hash_ns_per_post":            m(st.hashNS, "ns"),
		"core.offer_ns_per_post":              m(st.coreOfferNS, "ns"),
		"core.comparisons_per_post":           m(float64(exp.comparisons)/float64(len(posts)), "count"),
		"core.deliveries_per_post":            m(float64(exp.deliveries)/float64(len(posts)), "count"),
		"core.prune_ratio":                    m(exp.pruneRatio, "ratio"),
		"core.stored_peak":                    m(float64(exp.storedPeak), "count"),
		"stream.seq_offer_ns_per_post":        m(st.seqOfferNS, "ns"),
		"stream.seq_batch_ns_per_post":        m(st.seqBatchNS, "ns"),
		"stream.par_offer_ns_per_post":        m(st.parOfferNS, "ns"),
		"stream.par_batch_ns_per_post":        m(st.parBatchNS, "ns"),
		"stream.par_offer_allocs_per_post":    m(st.parOfferAllocs, "count"),
		"stream.par_offer_bytes_per_post":     m(st.parOfferBytes, "B"),
		"stream.queue_wait_p50_us":            m(st.queueWaitP50US, "us"),
		"httpapi.ingest_ns_per_post":          m(st.ingestNS, "ns"),
		"httpapi.batch_ns_per_post":           m(st.batchNS, "ns"),
		"httpapi.ingest_allocs_per_post":      m(st.ingestAllocs, "count"),
		"httpapi.sse_publish_ns_per_delivery": m(float64(self[spanSSE])/deliveries, "ns"),
		"httpapi.sse_dropped":                 m(lg.sseDropped, "count"),
		"nethttp.residual_ns_per_post":        m(residual, "ns"),
		"shard.forward_ns_per_post":           m(forwardNS, "ns"),
		"shard.forward_bytes_per_post":        m(forwardBytes, "B"),
		"shard.coordinate_ms":                 m(coordinateMS, "ms"),
		"shard.skew":                          m(st.shardSkew, "ratio"),
		"shard.plan_ms":                       m(st.planMS, "ms"),
		"checkpoint.snapshot_ms":              m(st.snapshotMS, "ms"),
		"checkpoint.write_ms":                 m(st.writeMS, "ms"),
		"checkpoint.bytes":                    m(st.checkpointBytes, "B"),
		"checkpoint.restore_ms":               m(st.restoreMS, "ms"),
		"connector.dispatch_ns_per_delivery":  m(float64(self[spanConnector])/deliveries, "ns"),
		"authorsim.build_graph_s":             m(st.buildGraphS, "s"),
		"corpusio.read_followees_ms":          m(st.readFolloweesMS, "ms"),
		"loadgen.late_p99_ms":                 m(lg.lateP99, "ms"),
		"loadgen.ack_p99_ms":                  m(lg.ackP99, "ms"),
		"loadgen.delivery_p95_ms":             m(lg.deliveryP95, "ms"),
		"loadgen.delivery_within_25ms_share":  m(lg.withinShare, "ratio"),
		"loadgen.gen_s":                       m(lg.genSeconds, "s"),
		"loadgen.trace_overhead_pct":          m(100*(traced-untraced)/untraced, "%"),
	}
	return nil
}

// inProcessPass hosts the workload's shape in-process around tr and replays
// the prefix against it exactly as the end-to-end pass drives the daemon,
// checking every answer against the reference. The caller closes the shape.
func inProcessPass(ctx context.Context, e *env, w workload, bodies [][]byte, every int, exp *expectation, res *result, tr *tracer, dir string) (*replay, *hosted, error) {
	h, err := hostShape(ctx, tr, e.inputs, w.shape, dir)
	if err != nil {
		return nil, nil, err
	}
	client := newConnClient()
	defer client.CloseIdleConnections()
	sub, err := subscribe(ctx, h.baseURL, exp.SubscribedUser)
	if err != nil {
		h.close()
		return nil, nil, err
	}
	chk := newChecker(&expectation{delivered: exp.delivered[:len(bodies)*w.batch]})
	tg := target{client: client, baseURL: h.baseURL, alive: func() error { return nil }, tr: tr}
	rp, err := replayRequests(ctx, tg, w, bodies, every, chk)
	if _, serr := sub.finish(0, 0); err == nil {
		err = serr
	}
	if err != nil {
		h.close()
		return nil, nil, fmt.Errorf("in-process pass: %w", err)
	}
	res.attempted += chk.attempted
	res.failed += chk.failed
	if chk.failed > 0 {
		res.correct = false
		if res.failure == "" {
			res.failure = "in-process pass: " + chk.first
		}
	}
	return rp, h, nil
}

func meanNS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(max(len(ds), 1))
}

// printBudget prints the per-layer table; its rows sum to the end-to-end
// per-post time (1e9 / posts_per_s) because the residual is one of them.
func printBudget(r *result) {
	fmt.Printf("   budget, ns per post (sums to 1e9 / posts_per_s = %.0f):\n", r.perPostNS)
	sum := 0.0
	for _, row := range r.budget {
		fmt.Printf("     %-50s %12.0f  %5.1f%%\n", row.layer, row.ns, 100*row.ns/r.perPostNS)
		sum += row.ns
	}
	fmt.Printf("     %-50s %12.0f\n", "total", sum)
}

// promValue sums the samples of one metric family in a Prometheus text
// exposition.
func promValue(text, name string) (float64, error) {
	sum, found := 0.0, false
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("metric %s: %w", name, err)
		}
		sum, found = sum+v, true
	}
	if !found {
		return 0, fmt.Errorf("metric %s not exposed", name)
	}
	return sum, nil
}
