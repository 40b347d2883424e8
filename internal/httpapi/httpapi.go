// Package httpapi exposes a multi-user diversification engine over HTTP —
// the central-service deployment of the paper's Figure 1b. It wraps a
// core.MultiDiversifier behind the stream engine's serialization and serves
// JSON endpoints for ingestion, timeline reads and statistics.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"firehose/internal/checkpoint"
	"firehose/internal/core"
	"firehose/internal/ingeststream"
	"firehose/internal/metrics"
	"firehose/internal/stream"
)

// Engine is the seam between the HTTP surface and a diversification engine:
// stream.MultiEngine (the synchronous view of the stream engine, inline or
// worker-sharded) and the shard router both satisfy it, so every endpoint
// (including /metrics) works unchanged over any backend. Out-of-package
// backends plug in through NewFromEngine; one that additionally implements
// core.StateSnapshotter gets Snapshot/Restore support.
type Engine interface {
	Offer(p *core.Post) ([]int32, error)
	// OfferBatch ingests a time-ordered batch as one unit, returning per-post
	// deliveries in batch order. Backends amortize their per-post costs (lock
	// acquisitions, worker channel sends) across the batch.
	OfferBatch(posts []*core.Post) ([][]int32, error)
	// Timeline returns the user's whole delivered history, oldest first. The
	// handlers read it only from an engine without TimelineTail (today that
	// is only a wrapper that forwards this interface alone, such as a
	// tracing engine), and keep its newest n.
	Timeline(user int32) []*core.Post
	Counters() metrics.Counters
	Name() string
	Close()
}

// workerSource is the optional per-worker instrumentation surface; a
// worker-sharded stream engine provides it (an inline one reports no
// workers), and /metrics exposes per-worker series when it does.
type workerSource interface {
	WorkerSnapshots() []stream.WorkerSnapshot
}

// timelineSizer is the optional retained-state surface of an engine that owns
// a timeline store (the stream engine, not the shard router); /metrics
// exposes the firehose_timeline_* gauges when it is there.
type timelineSizer interface {
	TimelineSize() (posts, entries, bytes uint64)
}

// countersErrSource is the optional failure-aware counters surface: the
// shard router implements it so GET /v1/stats over an unreachable worker
// becomes a 503 shard_unavailable instead of a silently partial sum.
type countersErrSource interface {
	CountersErr() (metrics.Counters, error)
}

// timelineTailer is the optional bounded, failure-aware read surface. The
// stream engine builds posts for the newest n of a history only and never
// fails; the shard router asks each shard for its newest n and fails a read
// over an unreachable worker, which the handlers serve as 503
// shard_unavailable instead of a silently partial 200.
type timelineTailer interface {
	TimelineTail(user int32, n int) (tail []*core.Post, total int, err error)
}

// timelineTail reads the newest n posts of a user's timeline, oldest first,
// and the timeline's length: through TimelineTail when the engine has it,
// else from the whole history Engine.Timeline returns.
func (s *Server) timelineTail(user int32, n int) (tail []*core.Post, total int, err error) {
	if e, ok := s.engine.(timelineTailer); ok {
		return e.TimelineTail(user, n)
	}
	tl := s.engine.Timeline(user)
	return tl[len(tl)-min(n, len(tl)):], len(tl), nil
}

// adaptiveSource is the optional adaptive-controller instrumentation surface.
// The stream engine implements the methods; an engine whose solver is not
// adaptive-wrapped returns nil states, and /metrics registers the adaptive
// families only for a non-nil answer at construction (the controller is a
// construction-time property, not something that appears mid-run).
type adaptiveSource interface {
	AdaptiveStates() []core.AdaptiveUserState
	Suppressed() uint64
}

// Server is an http.Handler serving one multi-user diversification engine.
type Server struct {
	mux      *http.ServeMux
	engine   Engine
	workers  workerSource   // nil unless the engine has worker queues
	adaptive adaptiveSource // nil unless the solver is adaptive-wrapped
	broker   *broker
	streams  *ingeststream.Server // POST /v1/ingest/stream
	registry *metrics.Registry
	ckpt     *checkpoint.Manager // nil until EnableCheckpoints

	// Shard topology, set once before serving (SetTopology /
	// SetTopologyProvider) and read-only afterwards. The zero values are a
	// plain single-node server: topology (0, 1, 0) in snapshots and 503
	// not_router from /v1/admin/topology.
	topoFn     func() TopologyResponse
	topoShard  int
	topoShards int
	topoDigest uint64

	// ingestMu serializes ingestion against snapshots: every ingest path
	// (single, batch, connector runner) holds it shared across {watermark
	// check, id allocation, engine offer, delivery}, and Snapshot/Restore
	// hold it exclusively — so a captured nextID is an exact watermark, with
	// no allocated-but-unoffered ids in flight.
	ingestMu sync.RWMutex

	// mu guards: nextID, lastT, snapSeq, deliveryHook, httpOnlyErr, ckptPause, ckptBytes
	mu           sync.Mutex
	nextID       uint64
	lastT        int64
	snapSeq      uint64 // nextID captured by the most recent Snapshot/Restore
	deliveryHook func(p TimelinePost, users []int32)
	httpOnlyErr  error             // non-nil once DisableHTTPIngest ran
	ckptPause    metrics.Histogram // time each Snapshot held ingestMu
	ckptBytes    int64             // size of the last successful Snapshot
}

// New builds a Server around a multi-user diversifier, running decisions on
// the caller's goroutine through the inline stream engine.
func New(md core.MultiDiversifier) *Server {
	return newServer(stream.NewMultiEngine(md))
}

// NewParallel builds a Server over a worker-sharded stream engine. Ingest
// handlers block on their own post's decision ticket only, so concurrent
// requests touching different author-graph components decide in parallel.
// /metrics additionally exposes per-worker queue and decision series.
func NewParallel(pe *stream.ParallelMultiEngine) *Server {
	return newServer(stream.MultiEngine{ParallelMultiEngine: pe})
}

// NewFromEngine builds a Server over any Engine implementation — the seam
// the shard router plugs into, so a router process serves the identical HTTP
// surface (id allocation, disorder checks, SSE, checkpoint admin) as a
// single node.
func NewFromEngine(e Engine) *Server { return newServer(e) }

func newServer(e Engine) *Server {
	s := &Server{
		mux:     http.NewServeMux(),
		engine:  e,
		broker:  newBroker(),
		streams: ingeststream.NewServer(ingeststream.ClientProtocol, false),
	}
	if ws, ok := e.(workerSource); ok && ws.WorkerSnapshots() != nil {
		s.workers = ws
	}
	if as, ok := e.(adaptiveSource); ok && as.AdaptiveStates() != nil {
		s.adaptive = as
	}
	s.registry = s.buildRegistry()
	// Every endpoint is served under the versioned /v1 prefix only.
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/ingest/batch", s.handleIngestBatch)
	s.mux.HandleFunc("POST /v1/ingest/stream", s.handleIngestStream)
	s.mux.HandleFunc("GET /v1/timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/users/{id}/stats", s.handleUserStats)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("POST /v1/admin/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/admin/checkpoints", s.handleCheckpoints)
	s.mux.HandleFunc("GET /v1/admin/topology", s.handleTopology)
	return s
}

// Handle mounts an additional handler on the server's mux under the given
// net/http pattern (e.g. "POST /v1/shard/checkpoint"). The shard worker and
// router use it to add their topology endpoints without the package
// importing them.
func (s *Server) Handle(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases the server's streaming resources: every open SSE
// subscription is closed so /v1/stream handlers return, the engine is
// closed (draining in-flight parallel decisions), and every open ingest
// stream ends, its goroutine with it. Call it before http.Server.Shutdown,
// which waits for active handlers — without it the (otherwise endless) SSE
// connections would hold shutdown until its context expires, and it never
// sees a stream's hijacked connection. In-flight ingests racing Close are
// answered with 503. The engine closes before the streams so that a frame
// waiting on it (a router's forward to a worker that is down) returns at
// once.
func (s *Server) Close() {
	s.broker.close()
	s.engine.Close()
	s.streams.Close()
}

// IngestRequest is the POST /v1/ingest body.
type IngestRequest struct {
	// Author is the posting author's id.
	Author int32 `json:"author"`
	// Text is the post content.
	Text string `json:"text"`
	// TimeMillis is the post timestamp (Unix milliseconds). Posts must be
	// ingested in non-decreasing time order; out-of-order posts are
	// rejected with 409.
	TimeMillis int64 `json:"timeMillis"`
}

// IngestResponse reports the users whose timelines received the post.
type IngestResponse struct {
	ID        uint64  `json:"id"`
	Delivered []int32 `json:"delivered"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.httpIngestDisabled() {
		writeError(w, http.StatusServiceUnavailable, CodeIngestDisabled, "%v", ErrIngestDisabled)
		return
	}
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	req, err := cb.decodeIngestBody(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadJSON, "bad JSON: %v", err)
		return
	}
	id, users, err := s.IngestPost(req.Author, req.TimeMillis, req.Text)
	if err != nil {
		WriteIngestError(w, req.TimeMillis, err)
		return
	}
	cb.b = append(appendIngestResponse(cb.b[:0], id, users), '\n')
	writeJSONBytes(w, cb.b)
}

// handleIngestStream serves POST /v1/ingest/stream: an Upgrade to the
// ingeststream.ClientProtocol stream, whose every frame is one
// POST /v1/ingest. Push ingestion being disabled is answered before the
// Upgrade.
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	if s.httpIngestDisabled() {
		writeError(w, http.StatusServiceUnavailable, CodeIngestDisabled, "%v", ErrIngestDisabled)
		return
	}
	ServeStream(w, r, s.streams, s.decideFrame)
}

// decideFrame is POST /v1/ingest for one client frame: the same id
// allocation, rollback, refusals and delivered list. A client frame carries
// neither id nor prev; the reply carries the id the server assigned.
func (s *Server) decideFrame(req *ingeststream.Request, refuse http.ResponseWriter) (uint64, []int32, bool) {
	if req.ID != 0 || req.Prev != 0 {
		writeError(refuse, http.StatusBadRequest, CodeBadParam,
			"a client frame carries id 0 and prev 0 (got %d and %d): the server assigns post ids", req.ID, req.Prev)
		return 0, nil, false
	}
	id, users, err := s.IngestPost(req.Author, req.TimeMillis, req.Text)
	if err != nil {
		WriteIngestError(refuse, req.TimeMillis, err)
		return 0, nil, false
	}
	return id, users, true
}

// BatchIngestRequest is the POST /v1/ingest/batch body: a time-ordered slice of
// posts ingested as one unit. The whole batch is accepted or rejected —
// validation failures leave the stream untouched.
type BatchIngestRequest struct {
	Posts []IngestRequest `json:"posts"`
}

// BatchIngestResponse reports per-post deliveries in batch order.
type BatchIngestResponse struct {
	Results []IngestResponse `json:"results"`
}

func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	if s.httpIngestDisabled() {
		writeError(w, http.StatusServiceUnavailable, CodeIngestDisabled, "%v", ErrIngestDisabled)
		return
	}
	cb := getCodecBuf()
	defer putCodecBuf(cb)
	// slab holds the batch's posts in one allocation; the engine takes
	// pointers into it.
	slab, err := cb.decodeBatchBody(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadJSON, "bad JSON: %v", err)
		return
	}
	if len(slab) == 0 {
		writeError(w, http.StatusBadRequest, CodeEmptyBatch, "empty batch")
		return
	}
	for i := range slab {
		if slab[i].Text == "" {
			writeError(w, http.StatusBadRequest, CodeEmptyText, "post %d: empty text", i)
			return
		}
		if i > 0 && slab[i].Time < slab[i-1].Time {
			writeDisorder(w, slab[i-1].Time,
				"post %d at %d arrived after %d; the batch must be time-ordered",
				i, slab[i].Time, slab[i-1].Time)
			return
		}
	}

	// Like IngestPost, the whole batch step holds ingestMu shared so a
	// snapshot's captured nextID covers exactly the posts inside the engine.
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()

	s.mu.Lock()
	prevT := s.lastT
	if slab[0].Time < prevT {
		s.mu.Unlock()
		writeDisorder(w, prevT,
			"batch starts at %d, after %d; the stream must be time-ordered",
			slab[0].Time, prevT)
		return
	}
	s.lastT = slab[len(slab)-1].Time
	firstID := s.nextID + 1
	s.nextID += uint64(len(slab))
	s.mu.Unlock()

	posts := make([]*core.Post, len(slab))
	for i := range slab {
		p := &slab[i]
		p.ID, p.FP = firstID+uint64(i), core.Fingerprint(p.Text)
		posts[i] = p
	}
	deliveries, err := s.engine.OfferBatch(posts)
	if err != nil {
		// Like IngestPost: a refused batch rolls both watermarks back when no
		// concurrent ingest has allocated past it, so the same batch can be
		// retried.
		s.mu.Lock()
		if s.nextID == firstID+uint64(len(posts))-1 {
			s.nextID, s.lastT = firstID-1, prevT
		}
		s.mu.Unlock()
		writeOfferError(w, err)
		return
	}
	out := append(cb.b[:0], `{"results":[`...)
	for i, users := range deliveries {
		p := posts[i]
		if len(users) > 0 {
			s.deliver(TimelinePost{ID: p.ID, Author: p.Author, TimeMillis: p.Time, Text: p.Text}, users)
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = appendIngestResponse(out, p.ID, users)
	}
	cb.b = append(out, "]}\n"...)
	writeJSONBytes(w, cb.b)
}

// TimelinePost is one delivered post in a timeline response.
type TimelinePost struct {
	ID         uint64 `json:"id"`
	Author     int32  `json:"author"`
	TimeMillis int64  `json:"timeMillis"`
	Text       string `json:"text"`
}

// TimelineResponse is the GET /v1/timeline body: the newest n posts, oldest
// first, and the length of the user's whole history.
type TimelineResponse struct {
	User  int32          `json:"user"`
	Posts []TimelinePost `json:"posts"`
	Total int            `json:"total"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	user, err := strconv.ParseInt(r.URL.Query().Get("user"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadParam, "bad or missing user parameter")
		return
	}
	n := 50
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, CodeBadParam, "bad n parameter")
			return
		}
		n = v
	}
	tl, total, terr := s.timelineTail(int32(user), n)
	if terr != nil {
		writeError(w, http.StatusServiceUnavailable, CodeShardUnavailable, "%v", terr)
		return
	}
	resp := TimelineResponse{User: int32(user), Posts: make([]TimelinePost, len(tl)), Total: total}
	for i, p := range tl {
		resp.Posts[i] = TimelinePost{ID: p.ID, Author: p.Author, TimeMillis: p.Time, Text: p.Text}
	}
	writeJSON(w, resp)
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Comparisons uint64 `json:"comparisons"`
	Insertions  uint64 `json:"insertions"`
	Evictions   uint64 `json:"evictions"`
	Accepted    uint64 `json:"accepted"`
	Rejected    uint64 `json:"rejected"`
	PeakCopies  int64  `json:"peakCopies"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var c metrics.Counters
	if e, ok := s.engine.(countersErrSource); ok {
		var err error
		if c, err = e.CountersErr(); err != nil {
			writeError(w, http.StatusServiceUnavailable, CodeShardUnavailable, "%v", err)
			return
		}
	} else {
		c = s.engine.Counters()
	}
	writeJSON(w, StatsResponse{
		Comparisons: c.Comparisons,
		Insertions:  c.Insertions,
		Evictions:   c.Evictions,
		Accepted:    c.Accepted,
		Rejected:    c.Rejected,
		PeakCopies:  c.StoredPeak,
	})
}

// writeJSONBytes writes an already-encoded 200 JSON body.
func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	// Headers already sent; nothing more to do on error.
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}
