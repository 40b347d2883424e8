package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firehose/internal/connector"
	"firehose/internal/core"
	"firehose/internal/httpapi"
	"firehose/internal/ingeststream"
)

// dialStream opens a shard stream to peer the way the router does; an empty
// topology omits the Firehose-Topology header.
func dialStream(tr http.RoundTripper, peer, topology string, bound time.Duration) (*ingeststream.Conn, int, []byte, error) {
	var header http.Header
	if topology != "" {
		header = http.Header{TopologyHeader: {topology}}
	}
	return ingeststream.Dial(context.Background(), tr, peer+streamPath, ingeststream.ShardProtocol, header, bound)
}

// roundTrip runs reqs as one pipeline on sc. accepted counts the leading
// posts the worker ingested, whose deliveries land in out (nil discards
// them); status and envelope are the first refusal (0 when there is none).
func roundTrip(sc *ingeststream.Conn, reqs []ingeststream.Request, out [][]int32) (accepted, status int, envelope []byte, moved int, err error) {
	replies := make([]ingeststream.Reply, len(reqs))
	n, moved, err := sc.RoundTrip(reqs, replies)
	for _, r := range replies[:n] {
		if r.Status != 0 {
			return accepted, r.Status, r.Envelope, moved, err
		}
		if out != nil {
			out[accepted] = r.Users
		}
		accepted++
	}
	return accepted, 0, nil, moved, err
}

// faultProxy is a TCP relay in front of one worker that can cut a connection
// after a byte budget in either direction, or hold the worker's bytes back.
// Faults hit whichever connection carries the next bytes, which in these
// tests is the stream: the router has nothing else to say between forwards.
type faultProxy struct {
	ln     net.Listener
	target string
	// cutUp / cutDown are the bytes still let through router→worker /
	// worker→router before the carrying connection is cut; negative disarms.
	cutUp, cutDown atomic.Int64
	// hold stalls worker→router bytes while set.
	hold atomic.Bool
	done chan struct{}
	wg   sync.WaitGroup
}

func newFaultProxy(t *testing.T, target string) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{ln: ln, target: strings.TrimPrefix(target, "http://"), done: make(chan struct{})}
	p.cutUp.Store(-1)
	p.cutDown.Store(-1)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			u, err := net.Dial("tcp", p.target)
			if err != nil {
				_ = c.Close()
				continue
			}
			p.wg.Add(2)
			go p.relay(u, c, &p.cutUp, nil)
			go p.relay(c, u, &p.cutDown, &p.hold)
		}
	}()
	t.Cleanup(func() {
		close(p.done)
		_ = ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *faultProxy) url() string { return "http://" + p.ln.Addr().String() }

func (p *faultProxy) relay(dst, src net.Conn, cut *atomic.Int64, hold *atomic.Bool) {
	defer p.wg.Done()
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 32<<10)
	for {
		_ = src.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		n, err := src.Read(buf)
		for hold != nil && hold.Load() {
			select {
			case <-p.done:
				return
			case <-time.After(time.Millisecond):
			}
		}
		if n > 0 {
			if budget := cut.Load(); budget >= 0 && int64(n) > budget {
				cut.Store(-1)
				_, _ = dst.Write(buf[:budget])
				return
			} else if budget >= 0 {
				cut.Store(budget - int64(n))
			}
			if _, err := dst.Write(buf[:n]); err != nil {
				return
			}
		}
		var ne net.Error
		if err != nil && !(errors.As(err, &ne) && ne.Timeout()) {
			return
		}
		select {
		case <-p.done:
			return
		default:
		}
	}
}

// proxiedStack is a one-shard deployment whose router reaches its worker
// through a faultProxy, next to a single node fed the same posts.
type proxiedStack struct {
	single, api *httpapi.Server
	worker      *httpapi.Server
	rt          *Router
	proxy       *faultProxy
}

func newProxiedStack(t *testing.T, bound time.Duration) *proxiedStack {
	t.Helper()
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := newEquivServer(t)
	w, err := NewWorker(WorkerOptions{Server: srv, Shard: 0, Assignment: assign, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	proxy := newFaultProxy(t, ts.URL)
	tr := &http.Transport{}
	rt, err := NewRouter(RouterOptions{
		Peers:      []string{proxy.url()},
		Assignment: assign,
		Client:     &http.Client{Transport: tr, Timeout: bound},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.retryIvl, rt.resyncTO = 5*time.Millisecond, 10*time.Second
	t.Cleanup(func() {
		rt.Close()
		tr.CloseIdleConnections()
		_ = w.Close()
		ts.Close()
	})
	if err := rt.InitialCoordination(); err != nil {
		t.Fatal(err)
	}
	return &proxiedStack{single: newEquivServer(t), api: httpapi.NewFromEngine(rt), worker: srv, rt: rt, proxy: proxy}
}

// offer ingests post i on both sides and requires the identical answer.
func (st *proxiedStack) offer(t *testing.T, i int) {
	t.Helper()
	author, tm, text := equivPost(i)
	body := ingestBody(author, tm, text)
	var want, got httpapi.IngestResponse
	wantCode, _ := do(t, st.single, "POST", "/v1/ingest", body, &want)
	gotCode, gotBody := do(t, st.api, "POST", "/v1/ingest", body, &got)
	if wantCode != gotCode || (wantCode == http.StatusOK &&
		(want.ID != got.ID || fmt.Sprint(want.Delivered) != fmt.Sprint(got.Delivered))) {
		t.Fatalf("post %d: single %d %+v, sharded %d %+v (%s)", i, wantCode, want, gotCode, got, gotBody)
	}
}

func (st *proxiedStack) dials() uint64 {
	st.rt.mu.Lock()
	defer st.rt.mu.Unlock()
	return st.rt.stats[0].dials
}

// streamOpen waits out an exchange in flight, then reports whether the
// shard's stream is still open.
func (st *proxiedStack) streamOpen() bool {
	ss := &st.rt.streams[0]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sc != nil
}

// TestStreamCutRecovers: the connection dies in the middle of a request frame
// (the worker never sees the post) and in the middle of a reply frame (the
// worker ingested it, the router cannot know). Either way the forward resyncs
// the worker, redials, and every decision stays the single node's.
func TestStreamCutRecovers(t *testing.T) {
	st := newProxiedStack(t, 5*time.Second)
	for i := 0; i < 20; i++ {
		st.offer(t, i)
	}
	if d := st.dials(); d != 1 {
		t.Fatalf("%d dials for 20 posts, want one persistent stream", d)
	}

	st.proxy.cutUp.Store(9) // a request frame is ≈40 bytes
	for i := 20; i < 40; i++ {
		st.offer(t, i)
	}
	if d := st.dials(); d != 2 {
		t.Fatalf("%d dials after a cut request, want 2", d)
	}

	st.proxy.cutDown.Store(2) // inside the reply's length prefix
	for i := 40; i < 60; i++ {
		st.offer(t, i)
	}
	if d := st.dials(); d < 3 {
		t.Fatalf("%d dials after a cut reply, want a redial", d)
	}
	st.rt.mu.Lock()
	resyncs := st.rt.stats[0].resyncs
	st.rt.mu.Unlock()
	if resyncs == 0 {
		t.Fatal("the cut reply left the worker one post ahead; the router never rolled it back")
	}
	if got, want := st.worker.IDWatermark(), st.single.IDWatermark(); got != want {
		t.Fatalf("worker watermark %d, single node %d", got, want)
	}
}

// TestStreamWedgedWorker: a worker that takes the request and never replies
// fails the forward attempt within the per-forward bound instead of hanging
// it, and the post goes through once the worker answers again.
func TestStreamWedgedWorker(t *testing.T) {
	const bound = 150 * time.Millisecond
	st := newProxiedStack(t, bound)
	for i := 0; i < 10; i++ {
		st.offer(t, i)
	}

	st.proxy.hold.Store(true)
	start := time.Now()
	released := make(chan time.Duration, 1)
	go func() {
		// Once the stream is dropped the first attempt has failed and the
		// router is polling the (still silent) worker.
		for st.streamOpen() && time.Since(start) < 5*time.Second {
			time.Sleep(time.Millisecond)
		}
		released <- time.Since(start)
		st.proxy.hold.Store(false)
	}()
	st.offer(t, 10)
	if took := <-released; took < bound || took > 3*time.Second {
		t.Fatalf("the wedged forward was given up after %v, want about the %v bound", took, bound)
	}
	for i := 11; i < 30; i++ {
		st.offer(t, i)
	}
}

// bigReplyServer builds a server whose every post is delivered to all of its
// users: one author, users who all follow it, and a one-millisecond window.
func bigReplyServer(t *testing.T, users int) *httpapi.Server {
	t.Helper()
	subs := make([][]int32, users)
	for u := range subs {
		subs[u] = []int32{0}
	}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, testGraph(), subs, core.Thresholds{LambdaC: 3, LambdaT: 1, LambdaA: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return httpapi.New(md)
}

// TestStreamPipelineLargerThanSocketBuffers: a 2,000-post sub-batch whose
// requests and replies each exceed what the (shrunken) socket buffers hold
// completes. Written from the reading goroutine, it cannot: the worker stops
// reading once its replies back up, and the router never gets to read them.
func TestStreamPipelineLargerThanSocketBuffers(t *testing.T) {
	const posts, users = 2000, 200
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := bigReplyServer(t, users)
	w, err := NewWorker(WorkerOptions{Server: srv, Shard: 0, Assignment: assign, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	shrink := func(c net.Conn) {
		_ = c.(*net.TCPConn).SetReadBuffer(64 << 10)
		_ = c.(*net.TCPConn).SetWriteBuffer(64 << 10)
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			shrink(c)
		}
	}
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			shrink(c)
		}
		return c, err
	}}
	defer tr.CloseIdleConnections()
	rt, err := NewRouter(RouterOptions{Peers: []string{ts.URL}, Assignment: assign, Client: &http.Client{Transport: tr, Timeout: 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	batch := make([]*core.Post, posts)
	for i := range batch {
		batch[i] = core.NewPost(uint64(i+1), 0, int64(1000*(i+1)), fmt.Sprintf("post %d %s", i, strings.Repeat("filler ", 40)))
	}
	done := make(chan error, 1)
	var results [][]int32
	go func() {
		var err error
		results, err = rt.OfferBatch(batch)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("the pipelined sub-batch deadlocked")
	}
	for i, r := range results {
		if len(r) != users {
			t.Fatalf("post %d delivered to %d users, want all %d", i, len(r), users)
		}
	}
	rt.mu.Lock()
	dials := rt.stats[0].dials
	rt.mu.Unlock()
	if dials != 1 {
		t.Fatalf("%d dials, want 1: the batch did not go through in one exchange", dials)
	}
}

// TestStreamPrevChainStopsPipeline: once frame i of a pipeline is refused,
// frames i+1… no longer name the worker's watermark in Prev and are refused
// by the worker itself, so nothing after frame i-1 reaches the engine.
func TestStreamPrevChainStopsPipeline(t *testing.T) {
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
	sc, status, body, err := dialStream(http.DefaultTransport, ts.URL, formatTopology(assign.Digest(), 0, 1), 0)
	if err != nil || sc == nil {
		t.Fatalf("dial: %d %s, %v", status, body, err)
	}
	defer sc.Close()

	reqs := make([]ingeststream.Request, 6)
	for i := range reqs {
		reqs[i] = ingeststream.Request{ID: uint64(10 * (i + 1)), Author: 0, TimeMillis: int64(1000 * (i + 1)), Text: fmt.Sprintf("post %d", i)}
		if i > 0 {
			reqs[i].Prev = reqs[i-1].ID
		}
	}
	reqs[2].Text = "" // refused: 400 empty_text
	out := make([][]int32, len(reqs))
	accepted, status, envelope, _, err := roundTrip(sc, reqs, out)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 2 || status != http.StatusBadRequest || !strings.Contains(string(envelope), httpapi.CodeEmptyText) {
		t.Fatalf("accepted %d, first refusal %d %s; want 2 accepted, then 400 %s", accepted, status, envelope, httpapi.CodeEmptyText)
	}
	if got := srv.IDWatermark(); got != reqs[1].ID {
		t.Fatalf("worker watermark %d, want %d: a frame behind the refused one reached the engine", got, reqs[1].ID)
	}
	// The stream is still in step: the rest of the pipeline, re-chained, lands.
	reqs[3].Prev = reqs[1].ID
	if accepted, status, envelope, _, err = roundTrip(sc, reqs[3:], out[3:]); err != nil || accepted != 3 {
		t.Fatalf("re-chained tail: accepted %d, refusal %d %s, %v", accepted, status, envelope, err)
	}
	// And each refused frame behind the first was a shard_desync.
	_, status, envelope, _, err = roundTrip(sc, []ingeststream.Request{{ID: 99, Prev: 1, Author: 0, TimeMillis: 99000, Text: "x"}}, nil)
	if err != nil || status != http.StatusConflict || !strings.Contains(string(envelope), httpapi.CodeShardDesync) {
		t.Fatalf("stale Prev: %d %s, %v; want 409 %s", status, envelope, err, httpapi.CodeShardDesync)
	}
}

// streamGoroutines returns the stacks of goroutines inside this package's
// stream code.
func streamGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var in []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "ingeststream.(*Server).serve") || strings.Contains(g, "ingeststream.(*Conn)") {
			in = append(in, g)
		}
	}
	return in
}

func waitNoStreamGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		left := streamGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) still inside the stream code:\n%s", len(left), strings.Join(left, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamLifecycle: a hijacked connection is invisible to the HTTP server,
// so the stream's two ends have to clean up after themselves. A second stream
// closes the first; Worker.Close ends the serving goroutine and refuses new
// streams; Router.Close severs a stream under an exchange in flight; and a
// stream outlives the server's ReadTimeout.
func TestStreamLifecycle(t *testing.T) {
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := formatTopology(assign.Digest(), 0, 1)
	srv := newEquivServer(t)
	w, err := NewWorker(WorkerOptions{Server: srv, Shard: 0, Assignment: assign, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ReadTimeout = 50 * time.Millisecond
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	next := uint64(0)
	frame := func() []ingeststream.Request {
		next++
		return []ingeststream.Request{{ID: next, Prev: next - 1, Author: 0, TimeMillis: int64(1000 * next), Text: fmt.Sprintf("post %d", next)}}
	}

	first, _, _, err := dialStream(tr, ts.URL, topo, 0)
	if err != nil || first == nil {
		t.Fatalf("first stream: %v", err)
	}
	defer first.Close()
	if n, _, _, _, err := roundTrip(first, frame(), nil); err != nil || n != 1 {
		t.Fatalf("first stream, first frame: %d, %v", n, err)
	}
	time.Sleep(120 * time.Millisecond) // well past the server's ReadTimeout
	if n, _, _, _, err := roundTrip(first, frame(), nil); err != nil || n != 1 {
		t.Fatalf("the stream died with the server's ReadTimeout: %d, %v", n, err)
	}

	second, _, _, err := dialStream(tr, ts.URL, topo, 0)
	if err != nil || second == nil {
		t.Fatalf("second stream: %v", err)
	}
	defer second.Close()
	if _, _, _, _, err := roundTrip(first, frame(), nil); err == nil {
		t.Fatal("the superseded stream still answers")
	}
	next-- // that frame never reached the engine
	if n, _, _, _, err := roundTrip(second, frame(), nil); err != nil || n != 1 {
		t.Fatalf("second stream: %d, %v", n, err)
	}
	if got := srv.IDWatermark(); got != next {
		t.Fatalf("worker watermark %d, want %d", got, next)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := roundTrip(second, frame(), nil); err == nil {
		t.Fatal("the stream survived Worker.Close")
	}
	if sc, status, body, _ := dialStream(tr, ts.URL, topo, 0); sc != nil || status != http.StatusServiceUnavailable || !strings.Contains(string(body), httpapi.CodeEngineClosed) {
		t.Fatalf("a closed worker answered the Upgrade with %d %s, want 503 %s", status, body, httpapi.CodeEngineClosed)
	}
	waitNoStreamGoroutines(t)

	// Router.Close under an exchange in flight: the peer upgrades, then
	// never replies.
	silent := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != streamPath {
			http.Error(rw, "silent", http.StatusServiceUnavailable)
			return
		}
		conn, buf, err := rw.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = buf.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + ingeststream.ShardProtocol + "\r\n\r\n")
		_ = buf.Flush()
		_, _ = io.Copy(io.Discard, conn)
	}))
	defer silent.Close()
	rt, err := NewRouter(RouterOptions{Peers: []string{silent.URL}, Assignment: assign, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	offered := make(chan error, 1)
	go func() {
		_, err := rt.Offer(core.NewPost(1, 0, 1000, "x"))
		offered <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); len(streamGoroutines()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the forward never reached the stream")
		}
	}
	rt.Close()
	select {
	case err := <-offered:
		if err == nil {
			t.Fatal("a forward to a silent peer succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Router.Close left the forward blocked on its stream")
	}
	waitNoStreamGoroutines(t)
}

// TestRouterNamesProtocolToWorkerWithoutStream: a peer that has no
// /v1/shard/stream (an older build) is a terminal, descriptive failure — not
// a resync loop.
func TestRouterNamesProtocolToWorkerWithoutStream(t *testing.T) {
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	old := httptest.NewServer(newEquivServer(t)) // a plain node: no shard endpoints
	defer old.Close()
	rt, err := NewRouter(RouterOptions{Peers: []string{old.URL}, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	start := time.Now()
	_, err = rt.Offer(core.NewPost(1, 0, 1000, "x"))
	if err == nil || !strings.Contains(err.Error(), ingeststream.ShardProtocol) || !strings.Contains(err.Error(), "same firehosed build") {
		t.Fatalf("Offer = %v, want an error naming %s", err, ingeststream.ShardProtocol)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("the refusal took %v: the router retried a terminal answer", took)
	}
}

// TestRouterMetrics: the router's /v1/metrics carries the per-shard forward
// series, and they move with the traffic.
func TestRouterMetrics(t *testing.T) {
	st := newShardedStack(t, 2)
	st.router.MountMetrics(st.api)
	const posts = 40
	for i := 0; i < posts; i++ {
		author, tm, text := equivPost(i)
		if code, body := do(t, st.api, "POST", "/v1/ingest", ingestBody(author, tm, text), nil); code != http.StatusOK {
			t.Fatalf("post %d: %d %s", i, code, body)
		}
	}
	_, text := do(t, st.api, "GET", "/v1/metrics", "", nil)
	series := func(name string) (sum float64) {
		t.Helper()
		found := 0
		for _, line := range strings.Split(text, "\n") {
			var v float64
			if strings.HasPrefix(line, name+"{") {
				if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
					t.Fatalf("unparsable sample %q", line)
				}
				sum += v
				found++
			}
		}
		if found != 2 {
			t.Fatalf("%d %s series, want one per shard:\n%s", found, name, text)
		}
		return sum
	}
	if got := series("firehose_shard_forward_seconds_count"); got != posts {
		t.Errorf("forward_seconds_count sums to %g, want %d", got, posts)
	}
	if got := series("firehose_shard_pending_posts"); got != posts {
		t.Errorf("pending_posts sums to %g, want %d", got, posts)
	}
	if got := series("firehose_shard_stream_dials_total"); got != 2 {
		t.Errorf("stream_dials_total sums to %g, want one dial per shard", got)
	}
	if got := series("firehose_shard_forward_bytes_total"); got < 30*posts {
		t.Errorf("forward_bytes_total sums to %g for %d posts", got, posts)
	}
	if got := series("firehose_shard_resyncs_total"); got != 0 {
		t.Errorf("resyncs_total sums to %g on a healthy fleet", got)
	}
}

// TestIngestStreamThroughRouter: a router's POST /v1/ingest/stream frames
// take the pushed post's path (turnstile, then the shard stream) and get
// POST /v1/ingest's answers: the same ids, delivered lists and refusal
// envelopes as the same posts POSTed one by one to a second fleet, which
// then serves the same timelines, user stats and stats. A worker refuses a
// client's stream before the Upgrade: its router owns the stream.
func TestIngestStreamThroughRouter(t *testing.T) {
	streamed, posted := newShardedStack(t, 2), newShardedStack(t, 2)
	ts := httptest.NewServer(streamed.api)
	defer ts.Close()
	dial := func(url string) (*ingeststream.Conn, int, []byte, error) {
		return ingeststream.Dial(context.Background(), http.DefaultTransport, url+"/v1/ingest/stream", ingeststream.ClientProtocol, nil, 10*time.Second)
	}
	sc, status, body, err := dial(ts.URL)
	if err != nil || sc == nil {
		t.Fatalf("dial: %d %s, %v", status, body, err)
	}
	defer sc.Close()

	var reqs []ingeststream.Request
	for i := 0; i < 150; i++ {
		author, tm, text := equivPost(i)
		reqs = append(reqs, ingeststream.Request{Author: author, TimeMillis: tm, Text: text})
		switch i {
		case 50:
			reqs = append(reqs, ingeststream.Request{Author: author, TimeMillis: tm - 1, Text: "late"})
		case 100:
			reqs = append(reqs, ingeststream.Request{Author: author, TimeMillis: tm})
		}
	}
	replies := make([]ingeststream.Reply, len(reqs))
	for lo := 0; lo < len(reqs); lo += 16 {
		hi := min(lo+16, len(reqs))
		if n, _, err := sc.RoundTrip(reqs[lo:hi], replies[lo:hi]); err != nil || n != hi-lo {
			t.Fatalf("frames %d–%d: %d replies, %v", lo, hi, n, err)
		}
	}
	refused := 0
	for i, r := range reqs {
		var want httpapi.IngestResponse
		code, body := do(t, posted.api, "POST", "/v1/ingest", ingestBody(r.Author, r.TimeMillis, r.Text), &want)
		rep := replies[i]
		switch {
		case code != http.StatusOK:
			refused++
			if rep.Status != code || string(rep.Envelope) != body {
				t.Fatalf("post %d: stream refused with %d %s, POST with %d %s", i, rep.Status, rep.Envelope, code, body)
			}
		case rep.Status != 0 || rep.ID != want.ID || fmt.Sprint(rep.Users) != fmt.Sprint(want.Delivered):
			t.Fatalf("post %d: stream answered %+v, POST %s", i, rep, body)
		}
	}
	if refused != 2 {
		t.Fatalf("%d refusals, want the disorder and the empty text", refused)
	}
	paths := []string{"/v1/stats"}
	for u := -1; u <= len(equivSubscriptions()); u++ {
		paths = append(paths, fmt.Sprintf("/v1/timeline?user=%d&n=100000", u), fmt.Sprintf("/v1/users/%d/stats", u))
	}
	for _, p := range paths {
		gotCode, got := do(t, streamed.api, "GET", p, "", nil)
		wantCode, want := do(t, posted.api, "GET", p, "", nil)
		if gotCode != http.StatusOK || gotCode != wantCode || got != want {
			t.Fatalf("GET %s after streaming: %d %s; after POSTs: %d %s", p, gotCode, got, wantCode, want)
		}
	}

	if sc, status, body, err := dial(streamed.servers[0].URL); err != nil || sc != nil || status != http.StatusServiceUnavailable || !strings.Contains(string(body), httpapi.CodeIngestDisabled) {
		t.Fatalf("a worker answered a client stream with %d %s, %v; want 503 %s", status, body, err, httpapi.CodeIngestDisabled)
	}
}

// TestRouterChecksReplyID: an OK reply must carry the id the router
// forwarded. A peer that answers another id breaks the stream, and the
// forward fails naming both ids instead of handing the client a decision for
// the wrong post.
func TestRouterChecksReplyID(t *testing.T) {
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	streams := ingeststream.NewServer(ingeststream.ShardProtocol, true)
	defer streams.Close()
	peer := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != streamPath {
			http.NotFound(rw, r)
			return
		}
		httpapi.ServeStream(rw, r, streams, func(req *ingeststream.Request, _ http.ResponseWriter) (uint64, []int32, bool) {
			return req.ID + 1, []int32{0}, true
		})
	}))
	defer peer.Close()
	rt, err := NewRouter(RouterOptions{Peers: []string{peer.URL}, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.retryIvl, rt.resyncTO = 5*time.Millisecond, time.Second
	if users, err := rt.Offer(core.NewPost(1, 0, 1000, "x")); err == nil || !strings.Contains(err.Error(), "post 1 was answered as post 2") {
		t.Fatalf("Offer = %v, %v; want an error naming both ids", users, err)
	}
}

// TestRouterOversizeTextIsRejection: a post whose text does not fit a shard
// stream frame is refused before it is sent, as a deterministic rejection
// (connector.ErrRejected) that the connector runner may skip, and it burns
// no id.
func TestRouterOversizeTextIsRejection(t *testing.T) {
	st := newShardedStack(t, 2)
	author, tm, text := equivPost(0)
	if _, _, err := st.api.IngestPost(author, tm, strings.Repeat("x", ingeststream.MaxText+1)); !errors.Is(err, connector.ErrRejected) {
		t.Fatalf("oversize text: %v, want a deterministic rejection", err)
	}
	if id, _, err := st.api.IngestPost(author, tm, text); err != nil || id != 1 {
		t.Fatalf("the next post: id %d, %v; want id 1", id, err)
	}
}
