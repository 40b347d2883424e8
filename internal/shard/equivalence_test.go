package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/httpapi"
)

// The router property: plugged into httpapi.NewFromEngine, a sharded
// deployment answers the byte-identical ingest decisions of a single node —
// same ids, same delivered-user sets, same timelines — for any shard count,
// because components of G(λa) never interact and every worker runs the full
// engine configuration. The tests here run the whole stack in-process (real
// HTTP between router and workers via httptest servers); the multi-process
// SIGKILL variant lives in cmd/firehosed.

// equivSubscriptions spreads users across the test graph's six components so
// the router's per-user merge is exercised: every user spans shards at any
// shard count > 1.
func equivSubscriptions() [][]int32 {
	return [][]int32{
		{0, 1, 3, 5, 9},
		{2, 4, 6, 8, 10},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		{5, 8},
		{7, 11},
	}
}

// newEquivServer builds one full-configuration engine server (the same
// construction for the single node and for every worker).
func newEquivServer(t *testing.T) *httpapi.Server {
	t.Helper()
	th := core.Thresholds{LambdaC: 3, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, testGraph(), equivSubscriptions(), th)
	if err != nil {
		t.Fatal(err)
	}
	return httpapi.New(md)
}

// equivPost is the deterministic workload: author walks an LCG over the full
// universe (so similar authors post close together in time), time strictly
// increases, text cycles a few templates.
func equivPost(i int) (author int32, timeMillis int64, text string) {
	state := uint64(i)*6364136223846793005 + 1442695040888963407
	author = int32((state >> 33) % 12)
	return author, int64(1000 * (i + 1)), fmt.Sprintf("post %d from author %d", i, author)
}

// shardedStack is one in-process deployment: n workers behind httptest
// servers, a router engine, and the router's own API server.
type shardedStack struct {
	assign  *Assignment
	workers []*Worker
	servers []*httptest.Server
	router  *Router
	api     *httpapi.Server
	reads   *timelineReads
}

// timelineReads is the router's transport in a shardedStack: it records the
// query of every GET /v1/timeline the router sends a shard.
type timelineReads struct {
	// mu guards: queries
	mu      sync.Mutex
	queries []url.Values
}

func (l *timelineReads) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/timeline" {
		l.mu.Lock()
		l.queries = append(l.queries, r.URL.Query())
		l.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the queries recorded since the last take.
func (l *timelineReads) take() []url.Values {
	l.mu.Lock()
	defer l.mu.Unlock()
	q := l.queries
	l.queries = nil
	return q
}

func newShardedStack(t *testing.T, shards int) *shardedStack {
	t.Helper()
	assign, err := Plan(testGraph(), shards)
	if err != nil {
		t.Fatal(err)
	}
	st := &shardedStack{assign: assign, reads: &timelineReads{}}
	peers := make([]string, shards)
	for s := 0; s < shards; s++ {
		srv := newEquivServer(t)
		w, err := NewWorker(WorkerOptions{
			Server:        srv,
			Shard:         s,
			Assignment:    assign,
			CheckpointDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = w.Close() })
		st.workers = append(st.workers, w)
		st.servers = append(st.servers, ts)
		peers[s] = ts.URL
	}
	rt, err := NewRouter(RouterOptions{
		Peers:      peers,
		Assignment: assign,
		Client:     &http.Client{Timeout: 30 * time.Second, Transport: st.reads},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.retryIvl, rt.resyncTO = 5*time.Millisecond, 5*time.Second
	if err := rt.InitialCoordination(); err != nil {
		t.Fatal(err)
	}
	st.router = rt
	st.api = httpapi.NewFromEngine(rt)
	st.api.SetTopology(-1, shards, assign.Digest())
	st.api.SetTopologyProvider(rt.Topology)
	return st
}

// do drives one request against a server's mux and decodes the response.
func do(t *testing.T, s *httpapi.Server, method, path, body string, out any) (int, string) {
	t.Helper()
	var r *strings.Reader
	if body != "" {
		r = strings.NewReader(body)
	} else {
		r = strings.NewReader("")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, r))
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %s: %v", method, path, rec.Body, err)
		}
	}
	return rec.Code, rec.Body.String()
}

func ingestBody(author int32, timeMillis int64, text string) string {
	b, _ := json.Marshal(map[string]any{"author": author, "timeMillis": timeMillis, "text": text})
	return string(b)
}

func timelineIDs(t *testing.T, s *httpapi.Server, user int) []uint64 {
	t.Helper()
	var resp struct {
		Posts []struct {
			ID uint64 `json:"id"`
		} `json:"posts"`
	}
	code, body := do(t, s, "GET", fmt.Sprintf("/v1/timeline?user=%d&n=100000", user), "", &resp)
	if code != http.StatusOK {
		t.Fatalf("timeline user %d: %d %s", user, code, body)
	}
	ids := make([]uint64, len(resp.Posts))
	for i, p := range resp.Posts {
		ids[i] = p.ID
	}
	return ids
}

// checkBoundedReads: for every user, and one on each side of the user range,
// the router answers /v1/timeline at the default n and at n = 1, 7 and
// 100000, and /v1/users/{u}/stats, byte-identically to the single node,
// total included. Each read asks every shard once, for the caller's n (1 for
// user stats), never for the whole history.
func checkBoundedReads(t *testing.T, single *httpapi.Server, st *shardedStack) {
	t.Helper()
	st.reads.take()
	longest := 0
	for u := -1; u <= len(equivSubscriptions()); u++ {
		for _, read := range []struct{ path, n string }{
			{fmt.Sprintf("/v1/timeline?user=%d", u), "50"},
			{fmt.Sprintf("/v1/timeline?user=%d&n=1", u), "1"},
			{fmt.Sprintf("/v1/timeline?user=%d&n=7", u), "7"},
			{fmt.Sprintf("/v1/timeline?user=%d&n=100000", u), "100000"},
			{fmt.Sprintf("/v1/users/%d/stats", u), "1"},
		} {
			var tl httpapi.TimelineResponse
			wantCode, want := do(t, single, "GET", read.path, "", &tl)
			gotCode, got := do(t, st.api, "GET", read.path, "", nil)
			if wantCode != http.StatusOK || gotCode != wantCode || got != want {
				t.Fatalf("%s: single %d %s, sharded %d %s", read.path, wantCode, want, gotCode, got)
			}
			longest = max(longest, tl.Total)
			queries := st.reads.take()
			if len(queries) != len(st.servers) {
				t.Fatalf("%s: the router sent %d shard timeline reads, want one per shard (%d)", read.path, len(queries), len(st.servers))
			}
			for _, q := range queries {
				if q.Get("user") != fmt.Sprint(u) || q.Get("n") != read.n {
					t.Fatalf("%s: the router asked a shard for %v, want user=%d n=%s", read.path, q, u, read.n)
				}
			}
		}
	}
	if longest <= 50 {
		t.Fatalf("the longest timeline holds %d posts; the reads need one longer than the default n", longest)
	}
}

func TestShardedDecisionEquivalence(t *testing.T) {
	const posts = 150
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			single := newEquivServer(t)
			st := newShardedStack(t, shards)

			lastSeen := make(map[int32]uint64) // per-user delivery monotonicity
			for i := 0; i < posts; i++ {
				author, tm, text := equivPost(i)
				body := ingestBody(author, tm, text)

				var want, got httpapi.IngestResponse
				wantCode, wantBody := do(t, single, "POST", "/v1/ingest", body, &want)
				gotCode, gotBody := do(t, st.api, "POST", "/v1/ingest", body, &got)
				if wantCode != gotCode {
					t.Fatalf("post %d: single answered %d (%s), sharded %d (%s)", i, wantCode, wantBody, gotCode, gotBody)
				}
				if wantCode != http.StatusOK {
					continue
				}
				if want.ID != got.ID {
					t.Fatalf("post %d: id %d vs %d", i, want.ID, got.ID)
				}
				if fmt.Sprint(want.Delivered) != fmt.Sprint(got.Delivered) {
					t.Fatalf("post %d (id %d): delivered %v on single, %v sharded", i, want.ID, want.Delivered, got.Delivered)
				}
				for _, u := range got.Delivered {
					if got.ID <= lastSeen[u] {
						t.Fatalf("post id %d delivered to user %d after id %d: merge not seq-monotone", got.ID, u, lastSeen[u])
					}
					lastSeen[u] = got.ID
				}
			}

			checkBoundedReads(t, single, st)
		})
	}
}

func TestShardedBatchEquivalence(t *testing.T) {
	const posts, batch = 120, 8
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			single := newEquivServer(t)
			st := newShardedStack(t, shards)

			for i := 0; i < posts; i += batch {
				var reqs []map[string]any
				for j := i; j < i+batch && j < posts; j++ {
					author, tm, text := equivPost(j)
					reqs = append(reqs, map[string]any{"author": author, "timeMillis": tm, "text": text})
				}
				raw, _ := json.Marshal(map[string]any{"posts": reqs})

				var want, got httpapi.BatchIngestResponse
				wantCode, wantBody := do(t, single, "POST", "/v1/ingest/batch", string(raw), &want)
				gotCode, gotBody := do(t, st.api, "POST", "/v1/ingest/batch", string(raw), &got)
				if wantCode != gotCode {
					t.Fatalf("batch at %d: single %d (%s), sharded %d (%s)", i, wantCode, wantBody, gotCode, gotBody)
				}
				if wantCode != http.StatusOK {
					continue
				}
				if len(want.Results) != len(got.Results) {
					t.Fatalf("batch at %d: %d vs %d results", i, len(want.Results), len(got.Results))
				}
				for k := range want.Results {
					if want.Results[k].ID != got.Results[k].ID ||
						fmt.Sprint(want.Results[k].Delivered) != fmt.Sprint(got.Results[k].Delivered) {
						t.Fatalf("batch at %d result %d: single %+v, sharded %+v", i, k, want.Results[k], got.Results[k])
					}
				}
			}

			checkBoundedReads(t, single, st)
		})
	}
}

// TestRouterRecoversCrashedWorker is the in-process crash drill: a worker
// process dies (its server stops, all engine state lost) and comes back cold
// on the same address; the next forward must transparently roll it back to
// the last coordinated round, replay the pending suffix, and produce the
// exact decisions an uninterrupted single node produces.
func TestRouterRecoversCrashedWorker(t *testing.T) {
	const shards = 2
	assign, err := Plan(testGraph(), shards)
	if err != nil {
		t.Fatal(err)
	}
	single := newEquivServer(t)

	dirs := make([]string, shards)
	addrs := make([]string, shards)
	peers := make([]string, shards)
	servers := make([]*httptest.Server, shards)
	workers := make([]*Worker, shards)
	start := func(s int) {
		t.Helper()
		srv := newEquivServer(t)
		w, err := NewWorker(WorkerOptions{Server: srv, Shard: s, Assignment: assign, CheckpointDir: dirs[s]})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addrs[s])
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		servers[s], workers[s] = ts, w
	}
	for s := 0; s < shards; s++ {
		dirs[s] = t.TempDir()
		addrs[s] = "127.0.0.1:0"
		start(s)
		addrs[s] = servers[s].Listener.Addr().String() // restarts rebind here
		peers[s] = "http://" + addrs[s]
	}
	defer func() {
		for s := range servers {
			servers[s].Close()
			_ = workers[s].Close()
		}
	}()

	rt, err := NewRouter(RouterOptions{
		Peers:      peers,
		Assignment: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.retryIvl, rt.resyncTO = 10*time.Millisecond, 5*time.Second
	if err := rt.InitialCoordination(); err != nil {
		t.Fatal(err)
	}
	api := httpapi.NewFromEngine(rt)

	offer := func(i int) {
		t.Helper()
		author, tm, text := equivPost(i)
		body := ingestBody(author, tm, text)
		var want, got httpapi.IngestResponse
		wantCode, _ := do(t, single, "POST", "/v1/ingest", body, &want)
		gotCode, gotBody := do(t, api, "POST", "/v1/ingest", body, &got)
		if wantCode != gotCode || (wantCode == http.StatusOK &&
			(want.ID != got.ID || fmt.Sprint(want.Delivered) != fmt.Sprint(got.Delivered))) {
			t.Fatalf("post %d: single %d %+v, sharded %d %+v (%s)", i, wantCode, want, gotCode, got, gotBody)
		}
	}

	for i := 0; i < 40; i++ {
		offer(i)
	}
	// Coordinate mid-stream (as the periodic checkpoint would), then keep
	// ingesting so the crash loses both checkpointed and pending state.
	if _, _, err := rt.coordinate(); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 70; i++ {
		offer(i)
	}

	// Crash shard 0: the server stops, the engine state evaporates. Restart it
	// cold over the same checkpoint directory and address.
	servers[0].Close()
	_ = workers[0].Close()
	start(0)

	// The next forwards recover transparently and stay bit-identical.
	for i := 70; i < 110; i++ {
		offer(i)
	}

	// Decision state recovers exactly; timeline view state follows the repo's
	// restore semantics (timelines are deliberately not checkpointed — see
	// internal/stream/checkpoint.go), so the restarted shard serves only its
	// post-restore suffix. Assert the merged timeline is an ordered subset of
	// the single node's and misses nothing delivered after the crash.
	const crashWatermark = 70 // ids 1..70 were ingested before the crash
	for u := range equivSubscriptions() {
		w, g := timelineIDs(t, single, u), timelineIDs(t, api, u)
		j := 0
		for _, id := range g {
			for j < len(w) && w[j] != id {
				j++
			}
			if j == len(w) {
				t.Fatalf("user %d: sharded timeline %v is not an ordered subset of single %v", u, g, w)
			}
			j++
		}
		inSharded := make(map[uint64]bool, len(g))
		for _, id := range g {
			inSharded[id] = true
		}
		for _, id := range w {
			if id > crashWatermark && !inSharded[id] {
				t.Fatalf("user %d: post %d delivered after the crash is missing from the sharded timeline %v", u, id, g)
			}
		}
	}
}

// TestCoordinateRollsBackPhantomState pins the coordination round's
// pre-checkpoint verification. A worker can hold state the router never
// recorded — the canonical producer is a partially failed OfferBatch, where
// one shard ingested its sub-batch, the batch failed as a unit, and the HTTP
// layer rolled the ids back without anything landing in pending. A
// coordination round must not bake that phantom state into the tagged
// checkpoint: it verifies (and heals) every worker against the replay buffer
// before requesting the checkpoint.
func TestCoordinateRollsBackPhantomState(t *testing.T) {
	single := newEquivServer(t)
	st := newShardedStack(t, 2)

	offer := func(i int) {
		t.Helper()
		author, tm, text := equivPost(i)
		body := ingestBody(author, tm, text)
		var want, got httpapi.IngestResponse
		wantCode, _ := do(t, single, "POST", "/v1/ingest", body, &want)
		gotCode, gotBody := do(t, st.api, "POST", "/v1/ingest", body, &got)
		if wantCode != gotCode || (wantCode == http.StatusOK &&
			(want.ID != got.ID || fmt.Sprint(want.Delivered) != fmt.Sprint(got.Delivered))) {
			t.Fatalf("post %d: single %d %+v, sharded %d %+v (%s)", i, wantCode, want, gotCode, got, gotBody)
		}
	}

	for i := 0; i < 30; i++ {
		offer(i)
	}
	if _, _, err := st.router.coordinate(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 40; i++ {
		offer(i)
	}

	// Inject the phantom: ingest a post directly into one worker, exactly as a
	// failed batch's surviving sub-batch would have. The forward is wellformed
	// (correct topology, correct Prev), so the worker accepts it — but the
	// router never records it. (The phantom's stream also supersedes the
	// router's, so the healing below starts from a dropped stream.)
	const phantomAuthor = 0
	shard := st.assign.ShardOf(phantomAuthor)
	exp := st.router.expected(shard)
	sc, status, body, err := dialStream(http.DefaultTransport, st.servers[shard].URL, formatTopology(st.assign.Digest(), shard, 2), 0)
	if err != nil || sc == nil {
		t.Fatalf("phantom stream: status %d %s, %v", status, body, err)
	}
	defer sc.close()
	phantom := []IngestRequest{{ID: 1000, Prev: exp, Author: phantomAuthor, TimeMillis: 10_000_000, Text: "phantom sub-batch"}}
	if n, status, body, _, err := sc.roundTrip(phantom, nil); err != nil || n != 1 {
		t.Fatalf("phantom ingest: status %d %s, %v", status, body, err)
	}

	// The coordination round must succeed — healing the desynced worker first —
	// and adopt exactly the watermark the replay buffer predicts, not the
	// phantom one.
	_, seqs, err := st.router.coordinate()
	if err != nil {
		t.Fatalf("coordinate over phantom worker state: %v", err)
	}
	if seqs[shard] != exp {
		t.Fatalf("coordinate adopted watermark %d for shard %d, want the pre-phantom %d", seqs[shard], shard, exp)
	}

	// The stream continues in lockstep: the phantom post (and its far-future
	// timestamp, which would poison the disorder checks if it survived) left no
	// trace. Decision state heals exactly; timeline view state follows the
	// repo's restore semantics (timelines are deliberately not checkpointed —
	// see internal/stream/checkpoint.go), so the healed shard serves its
	// post-rollback suffix: the merged timeline must be an ordered subset of
	// the single node's and miss nothing delivered after the rollback round.
	for i := 40; i < 70; i++ {
		offer(i)
	}
	const rollbackWatermark = 30 // the phantom healed by rolling back to the round at id 30
	for u := range equivSubscriptions() {
		w, g := timelineIDs(t, single, u), timelineIDs(t, st.api, u)
		j := 0
		for _, id := range g {
			for j < len(w) && w[j] != id {
				j++
			}
			if j == len(w) {
				t.Fatalf("user %d: sharded timeline %v is not an ordered subset of single %v", u, g, w)
			}
			j++
		}
		inSharded := make(map[uint64]bool, len(g))
		for _, id := range g {
			inSharded[id] = true
		}
		for _, id := range w {
			if id > rollbackWatermark && !inSharded[id] {
				t.Fatalf("user %d: post %d delivered after the rollback is missing from the sharded timeline %v", u, id, g)
			}
		}
	}
}

// TestRouterPendingFullHook pins the replay-buffer bound: the buffers-full
// callback fires once when total pending reaches the pending bound, stays quiet for
// the rest of the round, and re-arms after a coordination round clears the
// buffers.
func TestRouterPendingFullHook(t *testing.T) {
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := newEquivServer(t)
	w, err := NewWorker(WorkerOptions{Server: srv, Shard: 0, Assignment: assign, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rt, err := NewRouter(RouterOptions{
		Peers:      []string{ts.URL},
		Assignment: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.retryIvl, rt.resyncTO, rt.maxPending = 5*time.Millisecond, 5*time.Second, 5
	fired := make(chan struct{}, 4)
	rt.SetPendingFullHook(func() { fired <- struct{}{} })
	if err := rt.InitialCoordination(); err != nil {
		t.Fatal(err)
	}
	api := httpapi.NewFromEngine(rt)

	offer := func(i int) {
		t.Helper()
		author, tm, text := equivPost(i)
		if code, body := do(t, api, "POST", "/v1/ingest", ingestBody(author, tm, text), nil); code != http.StatusOK {
			t.Fatalf("post %d: %d %s", i, code, body)
		}
	}
	mustFire := func(when string) {
		t.Helper()
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("buffers-full hook did not fire %s", when)
		}
	}
	mustNotFire := func(when string) {
		t.Helper()
		select {
		case <-fired:
			t.Fatalf("buffers-full hook fired %s", when)
		default:
		}
	}

	for i := 0; i < 4; i++ {
		offer(i)
	}
	mustNotFire("below the pending bound")
	offer(4)
	mustFire("at the pending bound")
	for i := 5; i < 9; i++ {
		offer(i)
	}
	mustNotFire("twice within one coordination round")

	// A coordination round clears the buffers and re-arms the hook.
	if _, _, err := rt.coordinate(); err != nil {
		t.Fatal(err)
	}
	for i := 9; i < 14; i++ {
		offer(i)
	}
	mustFire("after the coordination round re-armed it")
}

// TestRouterRefusesForeignTopology pins the refusal at the stream's Upgrade:
// a worker answers a router planned over a different graph with 409
// shard_mismatch, the router gives the post up at once (no resync loop), and
// the engine is never touched.
func TestRouterRefusesForeignTopology(t *testing.T) {
	assign, err := Plan(testGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := newEquivServer(t)
	w, err := NewWorker(WorkerOptions{Server: srv, Shard: 0, Assignment: assign, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	otherGraph := authorsim.NewGraph(12, []authorsim.SimPair{{A: 2, B: 3}}, 0.7)
	other, err := Plan(otherGraph, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterOptions{Peers: []string{ts.URL, ts.URL}, Assignment: other})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	author := int32(0)
	for other.ShardOf(author) != 0 {
		author++
	}
	start := time.Now()
	_, err = rt.Offer(core.NewPost(1, author, 1000, "x"))
	var ee *envelopeError
	if !errors.As(err, &ee) || ee.status != http.StatusConflict || ee.code != httpapi.CodeShardMismatch {
		t.Fatalf("Offer = %v, want a 409 %s refusal", err, httpapi.CodeShardMismatch)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("the refusal took %v: the router retried a terminal answer", took)
	}
	if got := srv.IDWatermark(); got != 0 {
		t.Fatalf("engine ingested %d posts through a refused stream", got)
	}
}
