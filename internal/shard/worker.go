package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"firehose/internal/checkpoint"
	"firehose/internal/httpapi"
	"firehose/internal/ingeststream"
)

// WorkerOptions configures NewWorker. Server, Shard (with Assignment's shard
// count), Assignment and CheckpointDir are required.
type WorkerOptions struct {
	// Server is the worker's HTTP server, already built over the whole graph
	// and the same thresholds as every other shard, with each user's
	// subscriptions restricted to the authors this shard owns (authors
	// outside the graph kept, so that the engine refuses them by name). A
	// server built over the whole subscription map decides the same, but
	// holds the other shards' state for nothing.
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

	// mu guards: coordinated
	mu          sync.Mutex
	coordinated uint64

	// streams serves the router's stream, one at a time: a newer one
	// supersedes (closes) the live one. It decides each frame under its
	// lock, which makes the frame's {Prev check, ingest} atomic.
	streams *ingeststream.Server
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
		srv:     opts.Server,
		shard:   opts.Shard,
		assign:  opts.Assignment,
		inputs:  opts.Inputs,
		dir:     opts.CheckpointDir,
		retain:  opts.Retain,
		streams: ingeststream.NewServer(ingeststream.ShardProtocol, true),
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
	w.streams.Close()
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

// decide checks one forwarded post against this worker's identity and state
// before the engine sees it, then ingests it, writing a refusal's envelope
// to refuse. The Prev check catches a worker that lost state (crashed and
// restarted cold between two forwards) or holds state the router never
// recorded; the router rolls it back to the last coordinated round and
// replays.
func (w *Worker) decide(req *ingeststream.Request, refuse http.ResponseWriter) (uint64, []int32, bool) {
	if req.ID == 0 {
		httpapi.WriteError(refuse, http.StatusBadRequest, httpapi.CodeBadParam, "forwarded post is missing its assigned id")
		return 0, nil, false
	}
	if owner := w.assign.ShardOf(req.Author); owner != w.shard {
		httpapi.WriteError(refuse, http.StatusConflict, httpapi.CodeShardMismatch,
			"author %d belongs to shard %d, not this worker (shard %d); the router's routing table disagrees with this worker's",
			req.Author, owner, w.shard)
		return 0, nil, false
	}
	if got := w.srv.IDWatermark(); got != req.Prev {
		httpapi.WriteError(refuse, http.StatusConflict, httpapi.CodeShardDesync,
			"this forward expects shard %d's id watermark to be %d but it is %d; the worker's state and the router's replay buffer are out of step (did the worker restart?)",
			w.shard, req.Prev, got)
		return 0, nil, false
	}
	users, err := w.srv.IngestAssigned(req.ID, req.Author, req.TimeMillis, req.Text)
	if err != nil {
		httpapi.WriteIngestError(refuse, req.TimeMillis, err)
		return 0, nil, false
	}
	return req.ID, users, true
}

// handleStream upgrades the router's connection to the shard stream. The
// topology check runs here, once: a worker's assignment cannot change under a
// live connection.
func (w *Worker) handleStream(rw http.ResponseWriter, r *http.Request) {
	if err := w.checkTopology(r); err != nil {
		httpapi.WriteError(rw, http.StatusConflict, httpapi.CodeShardMismatch, "%v", err)
		return
	}
	httpapi.ServeStream(rw, r, w.streams, w.decide)
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
