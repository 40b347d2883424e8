package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/ingeststream"
	"firehose/internal/stream"
	"firehose/internal/twittergen"
)

// POST /v1/ingest/stream carries POST /v1/ingest frame by frame: the same id
// allocation, delivered lists and refusal envelopes, and the same state
// behind every read afterwards.

// streamWorkload is a generated stream over a 40-author graph, with the
// graph and subscriptions to build engines over.
func streamWorkload(t *testing.T) (*authorsim.Graph, [][]int32, []*core.Post) {
	t.Helper()
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(7)), twittergen.DefaultGraphConfig(40))
	if err != nil {
		t.Fatal(err)
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.7)
	vocab := twittergen.NewVocab(rand.New(rand.NewSource(8)), 2000)
	gen, err := twittergen.GenerateStream(rand.New(rand.NewSource(9)), social, g, vocab, twittergen.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	posts := gen.Posts[:min(len(gen.Posts), 400)]
	if len(posts) < 100 {
		t.Fatalf("workload too small: %d posts", len(posts))
	}
	return g, social.Subscriptions(), posts
}

// dialIngestStream opens a client stream to ts.
func dialIngestStream(t *testing.T, ts *httptest.Server) *ingeststream.Conn {
	t.Helper()
	sc, status, body, err := ingeststream.Dial(context.Background(), http.DefaultTransport, ts.URL+"/v1/ingest/stream", ingeststream.ClientProtocol, nil, 10*time.Second)
	if err != nil || sc == nil {
		t.Fatalf("dialling the ingest stream: %d %s, %v", status, body, err)
	}
	t.Cleanup(sc.Close)
	return sc
}

// sendFrames sends reqs over sc in pipelines of up to 16 frames and returns
// every reply.
func sendFrames(t *testing.T, sc *ingeststream.Conn, reqs []ingeststream.Request) []ingeststream.Reply {
	t.Helper()
	replies := make([]ingeststream.Reply, len(reqs))
	for lo := 0; lo < len(reqs); lo += 16 {
		hi := min(lo+16, len(reqs))
		if n, _, err := sc.RoundTrip(reqs[lo:hi], replies[lo:hi]); err != nil || n != hi-lo {
			t.Fatalf("frames %d–%d: %d replies, %v", lo, hi, n, err)
		}
	}
	return replies
}

// post sends one POST /v1/ingest and returns its status and body.
func post(t *testing.T, ts *httptest.Server, author int32, timeMillis int64, text string) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(IngestRequest{Author: author, TimeMillis: timeMillis, Text: text})
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// sameAsPost requires a stream reply to say what POST /v1/ingest said:
// the same id and delivered list, or the same status and envelope bytes.
func sameAsPost(t *testing.T, what string, rep ingeststream.Reply, status int, body []byte) {
	t.Helper()
	if status != http.StatusOK {
		if rep.Status != status || !bytes.Equal(rep.Envelope, body) {
			t.Fatalf("%s: stream refused with %d %s, POST with %d %s", what, rep.Status, rep.Envelope, status, body)
		}
		return
	}
	var want IngestResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if rep.Status != 0 || rep.ID != want.ID || fmt.Sprint(rep.Users) != fmt.Sprint(want.Delivered) {
		t.Fatalf("%s: stream answered %+v, POST %s", what, rep, body)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s", resp.StatusCode, body)
}

// TestIngestStreamMatchesPost: the same posts, plus a disorder and an empty
// text, streamed into one server and POSTed one by one into another, get the
// same answers, and leave the same timelines, user stats and stats behind,
// on the sequential and the 2-worker engine. A refused frame leaves the
// stream open.
func TestIngestStreamMatchesPost(t *testing.T) {
	g, subs, posts := streamWorkload(t)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	shapes := []struct {
		name  string
		build func() *Server
	}{
		{"sequential", func() *Server {
			md, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
			if err != nil {
				t.Fatal(err)
			}
			return New(md)
		}},
		{"2-worker", func() *Server {
			pe, err := stream.NewParallelMultiEngine(core.AlgUniBin, g, subs, th, 2)
			if err != nil {
				t.Fatal(err)
			}
			return NewParallel(pe)
		}},
	}
	reqs := make([]ingeststream.Request, 0, len(posts)+2)
	for i, p := range posts {
		reqs = append(reqs, ingeststream.Request{Author: p.Author, TimeMillis: p.Time, Text: p.Text})
		if i == len(posts)/3 {
			reqs = append(reqs, ingeststream.Request{Author: p.Author, TimeMillis: p.Time - 1, Text: "late"})
		}
		if i == len(posts)/2 {
			reqs = append(reqs, ingeststream.Request{Author: p.Author, TimeMillis: p.Time})
		}
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			streamed, posted := shape.build(), shape.build()
			sts, pts := httptest.NewServer(streamed), httptest.NewServer(posted)
			defer sts.Close()
			defer pts.Close()
			defer streamed.Close()
			defer posted.Close()

			replies := sendFrames(t, dialIngestStream(t, sts), reqs)
			refused := 0
			for i, r := range reqs {
				status, body := post(t, pts, r.Author, r.TimeMillis, r.Text)
				sameAsPost(t, fmt.Sprintf("post %d", i), replies[i], status, body)
				if status != http.StatusOK {
					refused++
				}
			}
			if refused < 2 {
				t.Fatalf("%d refusals; the disorder and empty-text frames were accepted", refused)
			}
			paths := []string{"/v1/stats"}
			for u := -1; u <= len(subs); u++ {
				paths = append(paths, fmt.Sprintf("/v1/timeline?user=%d&n=1000", u), fmt.Sprintf("/v1/users/%d/stats", u))
			}
			for _, p := range paths {
				if a, b := getBody(t, sts.URL+p), getBody(t, pts.URL+p); a != b {
					t.Fatalf("GET %s after streaming:\n%s\nafter POSTs:\n%s", p, a, b)
				}
			}
		})
	}
}

// gatedSolver holds every decision until its gate opens, so a test can fill
// a worker's queue.
type gatedSolver struct {
	core.MultiDiversifier
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedSolver) Offer(p *core.Post) []int32 {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.MultiDiversifier.Offer(p)
}

// TestIngestStreamQueueFull: on a fail-fast engine whose worker queue is
// full, a frame is refused with POST /v1/ingest's queue_full envelope byte
// for byte, its id and time watermark roll back, and the retried frame lands
// under the id the refused one would have had.
func TestIngestStreamQueueFull(t *testing.T) {
	g := authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	pe, err := stream.NewParallelMultiEngineOpts(core.AlgUniBin, g, [][]int32{{0, 1}, {2}}, th, 1, stream.ParallelOptions{QueueDepth: 1, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	gs := &gatedSolver{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	if err := pe.Swap(func(md core.MultiDiversifier) core.MultiDiversifier { gs.MultiDiversifier = md; return gs }); err != nil {
		t.Fatal(err)
	}
	srv := NewParallel(pe)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	sc := dialIngestStream(t, ts)

	// One post held by the worker, one in its queue. The queued one goes to
	// the engine directly: a fail-fast Offer returns its ticket at once.
	held := make(chan int, 1)
	go func() { status, _ := post(t, ts, 0, 1000, "held by the worker"); held <- status }()
	<-gs.entered
	queued, err := pe.Offer(core.NewPost(100, 2, 2000, "waiting in the queue"))
	if err != nil {
		t.Fatal(err)
	}

	status, body := post(t, ts, 2, 3000, "refused")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), CodeQueueFull) {
		t.Fatalf("POST on a full queue: %d %s", status, body)
	}
	frame := []ingeststream.Request{{Author: 2, TimeMillis: 3000, Text: "refused"}}
	replies := sendFrames(t, sc, frame)
	sameAsPost(t, "the frame on a full queue", replies[0], status, body)

	close(gs.gate)
	if status := <-held; status != http.StatusOK {
		t.Fatalf("the held post answered %d", status)
	}
	queued.Users()
	if replies = sendFrames(t, sc, frame); replies[0].Status != 0 || replies[0].ID != 2 {
		t.Fatalf("the retried frame: %+v, want id 2", replies[0])
	}
}

// TestIngestStreamRefusals: the answers around the frames. A missing Upgrade
// is 426; disabled push ingest is 503 ingest_disabled before the Upgrade,
// with POST /v1/ingest's envelope; a frame carrying an id or a prev is 400
// bad_param and the stream stays open; a malformed frame ends the stream.
func TestIngestStreamRefusals(t *testing.T) {
	srv := newAPIServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	resp, err := http.Post(ts.URL+"/v1/ingest/stream", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || !strings.Contains(string(body), CodeStreamingUnsupported) || !strings.Contains(string(body), ingeststream.ClientProtocol) {
		t.Fatalf("no Upgrade header: %d %s", resp.StatusCode, body)
	}

	sc := dialIngestStream(t, ts)
	replies := sendFrames(t, sc, []ingeststream.Request{
		{ID: 5, Author: 0, TimeMillis: 1000, Text: "x"},
		{Prev: 5, Author: 0, TimeMillis: 1000, Text: "x"},
		{Author: 0, TimeMillis: 1000, Text: "lands"},
	})
	for _, r := range replies[:2] {
		if r.Status != http.StatusBadRequest || !strings.Contains(string(r.Envelope), CodeBadParam) {
			t.Fatalf("a frame with an id or prev: %+v", r)
		}
	}
	if replies[2].Status != 0 || replies[2].ID != 1 {
		t.Fatalf("the frame after two refusals: %+v, want id 1", replies[2])
	}

	// A malformed frame: the server drops the connection without a reply.
	conn, br := rawStream(t, ts)
	if _, err := conn.Write([]byte{0, 0, 0, 1, 0x80}); err != nil {
		t.Fatal(err)
	}
	if err := awaitEOF(conn, br, 5*time.Second); err != nil {
		t.Fatalf("after a malformed frame: %v", err)
	}

	srv.DisableHTTPIngest()
	_, want := post(t, ts, 0, 2000, "x")
	sc2, status, got, err := ingeststream.Dial(context.Background(), http.DefaultTransport, ts.URL+"/v1/ingest/stream", ingeststream.ClientProtocol, nil, 10*time.Second)
	if err != nil || sc2 != nil || status != http.StatusServiceUnavailable || !bytes.Equal(got, want) {
		t.Fatalf("disabled ingest: %d %s, %v; want 503 %s", status, got, err, want)
	}
}

// rawStream upgrades a bare connection to ts's client stream, for frames the
// codec would not write.
func rawStream(t *testing.T, ts *httptest.Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST /v1/ingest/stream HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", ingeststream.ClientProtocol)
	br := bufio.NewReader(conn)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("raw Upgrade: %v, %v", resp, err)
	}
	return conn, br
}

// awaitEOF reports unless the server closes conn, without a reply byte,
// within wait.
func awaitEOF(conn net.Conn, br *bufio.Reader, wait time.Duration) error {
	_ = conn.SetReadDeadline(time.Now().Add(wait))
	if n, err := br.Read(make([]byte, 1)); err != io.EOF {
		return fmt.Errorf("read %d bytes, %v; want io.EOF", n, err)
	}
	return nil
}

// heapInUse is the live heap after a full collection.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIngestStreamSilentClients: a client stream keeps the HTTP server's
// read bounds, which a hijacked connection leaves behind, and a length
// prefix costs memory only as its payload arrives. A client that declares a
// 16 MiB frame and sends none of it, and one that sends nothing at all, each
// hold no more than a little heap, and both streams end, leaving the heap
// and the goroutine count where they were.
func TestIngestStreamSilentClients(t *testing.T) {
	srv := newAPIServer(t)
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ReadTimeout = time.Second
	ts.Config.IdleTimeout = 1500 * time.Millisecond
	ts.Start()
	defer ts.Close()
	defer srv.Close()
	if r := sendFrames(t, dialIngestStream(t, ts), []ingeststream.Request{{Author: 0, TimeMillis: 1000, Text: "warm"}}); r[0].Status != 0 {
		t.Fatalf("warm-up frame: %+v", r[0])
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	goroutines, heap := runtime.NumGoroutine(), heapInUse()

	start := time.Now()
	stalled, sbr := rawStream(t, ts)
	if _, err := stalled.Write([]byte{1, 0, 0, 0}); err != nil { // a 16 MiB payload follows, never
		t.Fatal(err)
	}
	silent, qbr := rawStream(t, ts)
	time.Sleep(300 * time.Millisecond)
	if grown := heapInUse() - heap; grown > 4<<20 {
		t.Fatalf("a bare 16 MiB length prefix grew the heap by %d bytes", grown)
	}
	if err := awaitEOF(stalled, sbr, 5*time.Second); err != nil {
		t.Fatalf("a frame whose payload never came: %v", err)
	}
	if err := awaitEOF(silent, qbr, 5*time.Second); err != nil {
		t.Fatalf("a stream that sent nothing: %v", err)
	}
	if waited := time.Since(start); waited < ts.Config.IdleTimeout {
		t.Fatalf("the silent stream ended after %v, before the %v idle bound", waited, ts.Config.IdleTimeout)
	}
	stalled.Close()
	silent.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after the streams ended, %d before:\n%s", runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
		}
	}
	if grown := heapInUse() - heap; grown > 1<<20 {
		t.Fatalf("the heap is %d bytes above its level before the streams", grown)
	}
}

// TestIngestStreamLargeFrameReleased: a stream does not keep a frame buffer
// above POST /v1/ingest's pooling bound once the frame is answered.
func TestIngestStreamLargeFrameReleased(t *testing.T) {
	srv := newAPIServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	conn, br := rawStream(t, ts)
	heap := heapInUse()
	// A 4 MiB frame carrying an id: refused with 400 bad_param, so its text
	// is stored nowhere and only the stream's buffers could hold it.
	frame := binary.BigEndian.AppendUint32(nil, 0)
	frame = append(frame, 5, 0, 0, 0)
	frame = append(frame, bytes.Repeat([]byte{'x'}, 4<<20)...)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	frame = nil
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, reply); err != nil || !strings.Contains(string(reply), CodeBadParam) {
		t.Fatalf("reply to a frame with an id: %q, %v", reply, err)
	}
	if grown := heapInUse() - heap; grown > 1<<20 {
		t.Fatalf("the open stream holds %d bytes more heap after a 4 MiB frame", grown)
	}
}

// TestIngestStreamCloseEndsStreams: Server.Close ends every open stream and
// leaves no goroutine behind.
func TestIngestStreamCloseEndsStreams(t *testing.T) {
	srv := newAPIServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	before := runtime.NumGoroutine()
	var streams []*ingeststream.Conn
	for i := range 3 {
		sc := dialIngestStream(t, ts)
		if r := sendFrames(t, sc, []ingeststream.Request{{Author: 0, TimeMillis: int64(1000 * (i + 1)), Text: fmt.Sprintf("post %d", i)}}); r[0].Status != 0 {
			t.Fatalf("stream %d: %+v", i, r[0])
		}
		streams = append(streams, sc)
	}
	srv.Close()
	for i, sc := range streams {
		if _, _, err := sc.RoundTrip([]ingeststream.Request{{Author: 0, TimeMillis: 9000, Text: "after Close"}}, make([]ingeststream.Reply, 1)); err == nil {
			t.Fatalf("stream %d outlived Server.Close", i)
		}
		sc.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before the streams:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
