package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"firehose/internal/checkpoint"
	"firehose/internal/httpapi"
)

// WorkerOptions configures NewWorker. Server, Shard (with Assignment's shard
// count), Assignment and CheckpointDir are required.
type WorkerOptions struct {
	// Server is the worker's HTTP server, already built over the full engine
	// configuration (whole graph, whole subscription map, same thresholds as
	// every other shard).
	Server *httpapi.Server
	// Shard is this worker's shard index in [0, Assignment.NumShards()).
	Shard int
	// Assignment is the deterministic routing table, planned from the
	// worker's config; the worker serves it to the router at the boot barrier
	// and refuses requests whose digest disagrees.
	Assignment *Assignment
	// Inputs is the fingerprint of the engine inputs the worker was built
	// from (graph source and thresholds), reported in the topology answer; a
	// router refuses a worker whose fingerprint differs from its own.
	Inputs string
	// CheckpointDir holds the worker's watermark-tagged checkpoints: the
	// router recovers a desynced worker by rolling it back to one.
	CheckpointDir string
	// Retain bounds the tagged checkpoints kept on disk; <= 0 keeps all.
	Retain int
}

// Worker turns an httpapi.Server into one shard of a sharded deployment: it
// mounts the /v1/shard/* endpoints the router drives, disables direct HTTP
// push (the router owns the stream), stamps the server's checkpoint
// fingerprint with the shard topology, and decides every forwarded post on
// the goroutine that reads the router's stream.
type Worker struct {
	srv    *httpapi.Server
	shard  int
	assign *Assignment
	inputs string
	dir    string
	retain int

	// ckptMu serializes coordinated checkpoint/restore rounds so a slow
	// snapshot and a crash-recovery rollback cannot interleave.
	ckptMu sync.Mutex

	// mu guards: coordinated, stream, closed
	// It is also held across each frame's {Prev check, ingest}, which makes
	// the pair atomic and keeps a superseded stream's leftover frames out of
	// the engine.
	mu          sync.Mutex
	coordinated uint64
	// stream is the router's live stream; a newer one supersedes (closes) it.
	stream net.Conn
	closed bool

	// streams counts serveStream goroutines; Close waits for them.
	streams sync.WaitGroup
}

// NewWorker wires the shard surface onto opts.Server. The server must not be
// serving traffic yet.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Server == nil {
		return nil, fmt.Errorf("shard: WorkerOptions.Server is required")
	}
	if opts.Assignment == nil {
		return nil, fmt.Errorf("shard: WorkerOptions.Assignment is required")
	}
	if opts.Shard < 0 || opts.Shard >= opts.Assignment.NumShards() {
		return nil, fmt.Errorf("shard: worker shard index %d out of range [0,%d)", opts.Shard, opts.Assignment.NumShards())
	}
	if opts.CheckpointDir == "" {
		return nil, fmt.Errorf("shard: WorkerOptions.CheckpointDir is required")
	}
	w := &Worker{
		srv:    opts.Server,
		shard:  opts.Shard,
		assign: opts.Assignment,
		inputs: opts.Inputs,
		dir:    opts.CheckpointDir,
		retain: opts.Retain,
	}

	srv := opts.Server
	srv.SetTopology(w.shard, w.assign.NumShards(), w.assign.Digest())
	srv.DisableHTTPIngest()
	srv.SetTopologyProvider(w.topologyResponse)
	srv.Handle("POST "+streamPath, w.handleStream)
	srv.Handle("POST /v1/shard/checkpoint", w.handleCheckpoint)
	srv.Handle("POST /v1/shard/restore", w.handleRestore)
	srv.Handle("GET "+assignmentPath, w.handleAssignment)
	return w, nil
}

// Close severs the router's stream and waits for its goroutine: a hijacked
// connection is invisible to http.Server.Shutdown, so nothing else would. The
// router sees the cut as a failed forward and resyncs once the worker is back.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	if w.stream != nil {
		_ = w.stream.Close()
		w.stream = nil
	}
	w.mu.Unlock()
	w.streams.Wait()
	return nil
}

func (w *Worker) topologyResponse() httpapi.TopologyResponse {
	w.mu.Lock()
	coordinated := w.coordinated
	w.mu.Unlock()
	return httpapi.TopologyResponse{
		Mode:                 "worker",
		Shard:                w.shard,
		Shards:               w.assign.NumShards(),
		Digest:               fmt.Sprintf("%016x", w.assign.Digest()),
		Inputs:               w.inputs,
		Watermark:            w.srv.IDWatermark(),
		CoordinatedWatermark: coordinated,
	}
}

// handleAssignment serves the routing table the router adopts at its boot
// barrier. It carries no topology header check: the router asks before it
// knows the digest, and the table is what it verifies the digests against.
func (w *Worker) handleAssignment(rw http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(rw, w.assign.Table())
}

// checkTopology refuses a request whose Firehose-Topology header names a
// different assignment digest, shard index or shard count — the first line of
// defense against a router and worker planned over different configs.
func (w *Worker) checkTopology(r *http.Request) error {
	v := r.Header.Get(TopologyHeader)
	if v == "" {
		return fmt.Errorf("request carries no %s header; only a firehosed router may call /v1/shard endpoints", TopologyHeader)
	}
	digest, shard, shards, err := parseTopology(v)
	if err != nil {
		return err
	}
	if digest != w.assign.Digest() || shard != w.shard || shards != w.assign.NumShards() {
		return fmt.Errorf(
			"request addressed shard %d/%d with assignment digest %016x, but this worker is shard %d/%d with digest %016x; router and workers must be started over the same graph, thresholds and shard count",
			shard, shards, digest, w.shard, w.assign.NumShards(), w.assign.Digest())
	}
	return nil
}

// checkFrame validates one forwarded post against this worker's identity and
// state before the engine sees it, answering the refusal's HTTP status and
// envelope code (0 when the post may be ingested). The Prev check catches a
// worker that lost state (crashed and restarted cold between two forwards)
// or holds state the router never recorded; the router rolls it back to the
// last coordinated round and replays.
func (w *Worker) checkFrame(req *IngestRequest) (int, string, error) {
	if req.ID == 0 {
		return http.StatusBadRequest, httpapi.CodeBadParam, fmt.Errorf("forwarded post is missing its assigned id")
	}
	if owner := w.assign.ShardOf(req.Author); owner != w.shard {
		return http.StatusConflict, httpapi.CodeShardMismatch, fmt.Errorf(
			"author %d belongs to shard %d, not this worker (shard %d); the router's routing table disagrees with this worker's",
			req.Author, owner, w.shard)
	}
	if got := w.srv.IDWatermark(); got != req.Prev {
		return http.StatusConflict, httpapi.CodeShardDesync, fmt.Errorf(
			"this forward expects shard %d's id watermark to be %d but it is %d; the worker's state and the router's replay buffer are out of step (did the worker restart?)",
			w.shard, req.Prev, got)
	}
	return 0, "", nil
}

// envelopeRecorder captures what httpapi's error choke point writes, so an
// error reply carries the status and envelope bytes the same refusal has over
// HTTP.
type envelopeRecorder struct {
	header http.Header
	status int
	body   []byte
}

func (r *envelopeRecorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}
func (r *envelopeRecorder) WriteHeader(status int) { r.status = status }
func (r *envelopeRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// appendRefusal renders a refusal through write and appends its reply frame.
func appendRefusal(dst []byte, write func(http.ResponseWriter)) []byte {
	var rec envelopeRecorder
	write(&rec)
	return appendErrReply(dst, rec.status, rec.body)
}

// decide checks and ingests one forwarded post and appends its reply frame to
// dst. It reports false, having touched nothing, when conn is no longer the
// worker's stream: a newer stream or Close took over while this frame was
// already read.
func (w *Worker) decide(conn net.Conn, req *IngestRequest, dst []byte) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stream != conn {
		return dst, false
	}
	status, code, err := w.checkFrame(req)
	if err != nil {
		return appendRefusal(dst, func(rw http.ResponseWriter) { httpapi.WriteError(rw, status, code, "%v", err) }), true
	}
	users, err := w.srv.IngestAssigned(req.ID, req.Author, req.TimeMillis, req.Text)
	if err != nil {
		return appendRefusal(dst, func(rw http.ResponseWriter) { httpapi.WriteIngestError(rw, err) }), true
	}
	return appendOKReply(dst, users), true
}

// handleStream upgrades the router's connection to the shard stream. The
// topology check runs here, once: a worker's assignment cannot change under a
// live connection.
func (w *Worker) handleStream(rw http.ResponseWriter, r *http.Request) {
	if err := w.checkTopology(r); err != nil {
		httpapi.WriteError(rw, http.StatusConflict, httpapi.CodeShardMismatch, "%v", err)
		return
	}
	hj, ok := rw.(http.Hijacker)
	if !ok || !strings.EqualFold(r.Header.Get("Upgrade"), StreamProtocol) {
		httpapi.WriteError(rw, http.StatusUpgradeRequired, httpapi.CodeStreamingUnsupported,
			"%s carries the %s protocol; send Connection: Upgrade and Upgrade: %s over HTTP/1.1", streamPath, StreamProtocol, StreamProtocol)
		return
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		httpapi.WriteError(rw, http.StatusServiceUnavailable, httpapi.CodeEngineClosed, "shard %d is shutting down", w.shard)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		w.mu.Unlock()
		httpapi.WriteError(rw, http.StatusInternalServerError, httpapi.CodeStreamingUnsupported, "%v", err)
		return
	}
	// One router, one stream: a half-open leftover of the router's previous
	// connection must not interleave its frames with the new one's.
	if w.stream != nil {
		_ = w.stream.Close()
	}
	w.stream = conn
	w.streams.Add(1)
	w.mu.Unlock()
	// The handler returns and the stream keeps its own goroutine: the server
	// treats a hijacked connection as finished either way.
	go w.serveStream(conn, buf)
}

// serveStream is the worker's end of the stream: read a frame, decide it on
// this goroutine, write the reply. Any I/O or framing error ends it; the
// router notices on its next forward and resyncs.
func (w *Worker) serveStream(conn net.Conn, buf *bufio.ReadWriter) {
	defer w.streams.Done()
	defer func() {
		w.mu.Lock()
		if w.stream == conn {
			w.stream = nil
		}
		w.mu.Unlock()
		_ = conn.Close()
	}()
	// The server armed its ReadTimeout for the Upgrade request; a stream
	// idles between posts for as long as the router has nothing to forward.
	_ = conn.SetDeadline(time.Time{})
	if _, err := buf.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + StreamProtocol + "\r\n\r\n"); err != nil {
		return
	}
	if err := buf.Flush(); err != nil {
		return
	}
	var in, out []byte
	for {
		payload, err := readFrame(buf.Reader, &in)
		if err != nil {
			return
		}
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		var live bool
		if out, live = w.decide(conn, &req, out[:0]); !live {
			return
		}
		if _, err := buf.Write(out); err != nil {
			return
		}
		// Replies to a pipeline go out together: flush only once no further
		// request is waiting to be read.
		if buf.Reader.Buffered() == 0 {
			if err := buf.Flush(); err != nil {
				return
			}
		}
	}
}

func (w *Worker) handleCheckpoint(rw http.ResponseWriter, r *http.Request) {
	if err := w.checkTopology(r); err != nil {
		httpapi.WriteError(rw, http.StatusConflict, httpapi.CodeShardMismatch, "%v", err)
		return
	}
	var req CheckpointRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(rw, http.StatusBadRequest, httpapi.CodeBadJSON, "invalid JSON body: %v", err)
		return
	}
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	f, err := checkpoint.WriteTagged(w.dir, req.Watermark, w.srv.Snapshot)
	if err != nil {
		httpapi.WriteError(rw, http.StatusInternalServerError, httpapi.CodeCheckpointFailed, "%v", err)
		return
	}
	_, _ = checkpoint.PruneTagged(w.dir, w.retain) // best-effort; stale files are harmless
	w.mu.Lock()
	w.coordinated = req.Watermark
	w.mu.Unlock()
	httpapi.WriteJSON(rw, CheckpointResponse{
		Watermark: f.Seq,
		ShardSeq:  w.srv.SnapshotWatermark(),
		File:      filepath.Base(f.Path),
	})
}

func (w *Worker) handleRestore(rw http.ResponseWriter, r *http.Request) {
	if err := w.checkTopology(r); err != nil {
		httpapi.WriteError(rw, http.StatusConflict, httpapi.CodeShardMismatch, "%v", err)
		return
	}
	var req RestoreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(rw, http.StatusBadRequest, httpapi.CodeBadJSON, "invalid JSON body: %v", err)
		return
	}
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	f, ok, err := checkpoint.LatestTaggedAtMost(w.dir, req.Watermark)
	if err != nil {
		httpapi.WriteError(rw, http.StatusInternalServerError, httpapi.CodeCheckpointFailed, "%v", err)
		return
	}
	if req.Watermark == 0 && !(ok && f.Seq == 0) {
		// The router is cold (no coordinated round, not even the boot-time
		// tag-0 round): the worker must be fresh too, or the processes are
		// out of step.
		if got := w.srv.IDWatermark(); got != 0 {
			httpapi.WriteError(rw, http.StatusConflict, httpapi.CodeShardMismatch,
				"router requested a rollback to the cold state but this worker already ingested up to id %d; restart the worker fresh or point the router at its coordinated checkpoint", got)
			return
		}
		httpapi.WriteJSON(rw, RestoreResponse{Restored: false, Watermark: 0, ShardSeq: 0})
		return
	}
	if !ok || f.Seq != req.Watermark {
		newest := "none"
		if ok {
			newest = strconv.FormatUint(f.Seq, 10)
		}
		httpapi.WriteError(rw, http.StatusConflict, httpapi.CodeShardMismatch,
			"no coordinated checkpoint tagged %d on shard %d (newest at or below it: %s); the router's checkpoint and this worker's disagree about the last coordination round",
			req.Watermark, w.shard, newest)
		return
	}
	file, err := os.Open(f.Path)
	if err != nil {
		httpapi.WriteError(rw, http.StatusInternalServerError, httpapi.CodeCheckpointFailed, "%v", err)
		return
	}
	defer file.Close()
	if err := w.srv.Restore(file); err != nil {
		status, code := http.StatusInternalServerError, httpapi.CodeCheckpointFailed
		if strings.Contains(err.Error(), httpapi.CodeShardMismatch) {
			status, code = http.StatusConflict, httpapi.CodeShardMismatch
		}
		httpapi.WriteError(rw, status, code, "%v", err)
		return
	}
	w.mu.Lock()
	w.coordinated = req.Watermark
	w.mu.Unlock()
	httpapi.WriteJSON(rw, RestoreResponse{
		Restored:  true,
		Watermark: f.Seq,
		ShardSeq:  w.srv.SnapshotWatermark(),
	})
}
