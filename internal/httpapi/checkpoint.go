package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"firehose/internal/checkpoint"
	"firehose/internal/core"
)

// This file is the server's durability surface: Snapshot/Restore serialize the
// full service state (engine decision state plus the HTTP layer's id and time
// watermarks) through internal/checkpoint, and the /v1/admin endpoints expose
// on-demand checkpointing when the daemon runs with a checkpoint directory.

// serverKind is the snapshot stream kind of a full HTTP server state.
const serverKind = "httpapi.Server"

// stateEngine is the optional snapshot surface of the engine seam; both the
// sequential MultiEngine and the parallel adapter provide it.
type stateEngine interface {
	core.StateSnapshotter
}

// topology returns the server's normalized shard identity for fingerprints:
// a plain server is shard 0 of 1 with digest 0.
func (s *Server) topology() (shard, shards int, digest uint64) {
	if s.topoShards == 0 {
		return 0, 1, 0
	}
	return s.topoShard, s.topoShards, s.topoDigest
}

// Snapshot writes the server's complete state to w: the engine's decision
// state (the parallel backend quiesces — intake pauses, in-flight decisions
// drain, shards serialize under their owner locks) followed by the HTTP
// layer's id/time watermarks.
//
// Snapshot holds ingestMu exclusively, so no ingest is mid-flight while the
// state is captured: every allocated id's post is inside the engine state,
// and the recorded nextID is an exact watermark (it also becomes
// SnapshotWatermark, the connector layer's ack boundary). Before ingestMu,
// a racing ingest could burn an id the restored server would skip; the
// exclusive section removes that gap entirely.
//
// Every call — admin, periodic, shutdown or a shard worker's tagged
// checkpoint — records how long it held ingestMu (the ingest pause, exported
// as firehose_checkpoint_pause_seconds) and, when it succeeds, the bytes it
// wrote (firehose_checkpoint_bytes).
func (s *Server) Snapshot(w io.Writer) error {
	se, ok := s.engine.(stateEngine)
	if !ok {
		return fmt.Errorf("httpapi: engine %s does not support checkpointing", s.engine.Name())
	}
	cw := &countingWriter{w: w}
	enc := checkpoint.NewEncoder(cw, serverKind) // buffers; writes nothing yet
	pause, err := s.captureExclusive(se, enc)
	s.mu.Lock()
	s.ckptPause.Observe(pause)
	if err == nil {
		s.ckptBytes = cw.n
	}
	s.mu.Unlock()
	return err
}

// captureExclusive is Snapshot's body: it holds ingestMu exclusively while
// it captures and writes the state, and reports for how long.
func (s *Server) captureExclusive(se stateEngine, enc *checkpoint.Encoder) (pause time.Duration, err error) {
	s.ingestMu.Lock()
	held := time.Now()
	defer func() {
		pause = time.Since(held)
		s.ingestMu.Unlock()
	}()
	if err := se.SnapshotState(enc); err != nil {
		return 0, err
	}
	s.mu.Lock()
	nextID, lastT := s.nextID, s.lastT
	s.mu.Unlock()
	enc.String("server")
	enc.Uvarint(nextID)
	enc.Varint(lastT)
	shard, shards, digest := s.topology()
	enc.Varint(int64(shard))
	enc.Uvarint(uint64(shards))
	enc.U64(digest)
	if err := enc.Finish(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.snapSeq = nextID
	s.mu.Unlock()
	return 0, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Restore replaces the server's state with a snapshot previously written by
// Snapshot on an identically configured server (same algorithm, graph,
// subscriptions, thresholds and worker count — validated structurally by the
// engine decode). Call it before serving traffic; on error discard the server
// and build a fresh one.
func (s *Server) Restore(r io.Reader) error {
	se, ok := s.engine.(stateEngine)
	if !ok {
		return fmt.Errorf("httpapi: engine %s does not support checkpointing", s.engine.Name())
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	dec, err := checkpoint.NewDecoder(r)
	if err != nil {
		return err
	}
	if dec.Kind() != serverKind {
		return fmt.Errorf("httpapi: snapshot holds a %s, cannot restore into a %s", dec.Kind(), serverKind)
	}
	if err := se.RestoreState(dec); err != nil {
		return err
	}
	dec.Expect("server")
	nextID := dec.Uvarint()
	lastT := dec.Varint()
	snapShard := int(dec.Varint())
	snapShards := int(dec.Uvarint())
	snapDigest := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if shard, shards, digest := s.topology(); snapShard != shard || snapShards != shards || snapDigest != digest {
		return fmt.Errorf(
			"httpapi: %s: snapshot was taken by shard %d/%d (topology %016x), this server is shard %d/%d (topology %016x); restore it on a node with the matching shard.index/shard.count and engine configuration",
			CodeShardMismatch, snapShard, snapShards, snapDigest, shard, shards, digest)
	}
	if err := dec.Finish(); err != nil {
		return err
	}
	s.mu.Lock()
	s.nextID = nextID
	s.lastT = lastT
	s.snapSeq = nextID
	s.mu.Unlock()
	return nil
}

// EnableCheckpoints arms the /v1/admin/checkpoint endpoints with a manager
// (typically one whose target is this server's own Snapshot). Without it the
// endpoints answer 503 checkpoints_disabled.
func (s *Server) EnableCheckpoints(m *checkpoint.Manager) { s.ckpt = m }

// CheckpointInfo describes one on-disk checkpoint in admin responses.
type CheckpointInfo struct {
	// Seq is the checkpoint's monotone sequence number.
	Seq uint64 `json:"seq"`
	// File is the checkpoint's file name inside the checkpoint directory.
	File string `json:"file"`
	// SizeBytes is the checkpoint file size.
	SizeBytes int64 `json:"sizeBytes"`
	// ModTimeMillis is the file's modification time (Unix milliseconds).
	ModTimeMillis int64 `json:"modTimeMillis"`
}

func checkpointInfo(f checkpoint.File) CheckpointInfo {
	return CheckpointInfo{
		Seq:           f.Seq,
		File:          filepath.Base(f.Path),
		SizeBytes:     f.Size,
		ModTimeMillis: f.ModTime.UnixMilli(),
	}
}

// CheckpointsResponse is the GET /v1/admin/checkpoints body.
type CheckpointsResponse struct {
	Checkpoints []CheckpointInfo `json:"checkpoints"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.ckpt == nil {
		writeError(w, http.StatusServiceUnavailable, CodeCheckpointsDisabled,
			"checkpointing is disabled; start the server with a checkpoint directory")
		return
	}
	f, err := s.ckpt.Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeCheckpointFailed, "%v", err)
		return
	}
	writeJSON(w, checkpointInfo(f))
}

func (s *Server) handleCheckpoints(w http.ResponseWriter, _ *http.Request) {
	if s.ckpt == nil {
		writeError(w, http.StatusServiceUnavailable, CodeCheckpointsDisabled,
			"checkpointing is disabled; start the server with a checkpoint directory")
		return
	}
	files, err := s.ckpt.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeCheckpointFailed, "%v", err)
		return
	}
	resp := CheckpointsResponse{Checkpoints: make([]CheckpointInfo, len(files))}
	for i, f := range files {
		resp.Checkpoints[i] = checkpointInfo(f)
	}
	writeJSON(w, resp)
}
