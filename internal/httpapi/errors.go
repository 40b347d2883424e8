package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"firehose/internal/ingeststream"
	"firehose/internal/stream"
)

// Every non-2xx response carries one JSON error envelope so clients branch on
// a stable machine code instead of parsing prose. The human-readable message
// may change between releases; the code never does.

// Error codes returned in the ErrorResponse envelope.
const (
	// CodeBadJSON: the request body did not parse as the documented JSON shape.
	CodeBadJSON = "bad_json"
	// CodeEmptyText: a post (single or in a batch) had empty text.
	CodeEmptyText = "empty_text"
	// CodeEmptyBatch: POST /v1/ingest/batch with zero posts.
	CodeEmptyBatch = "empty_batch"
	// CodeBadParam: a query or path parameter was missing or malformed.
	CodeBadParam = "bad_param"
	// CodeDisorder: the post (or batch) violates the stream's time order; the
	// envelope's seq field holds the watermark it must not precede.
	CodeDisorder = "disorder"
	// CodeBodyTooLarge: an ingest request body is longer than the ingest
	// bound (ingeststream.MaxFrame, 16 MiB), which also bounds a stream frame.
	CodeBodyTooLarge = "body_too_large"
	// CodeEngineClosed: the engine is shutting down.
	CodeEngineClosed = "engine_closed"
	// CodeEngineError: the engine rejected the post for an unanticipated
	// reason; see the message.
	CodeEngineError = "engine_error"
	// CodeIngestDisabled: push ingestion over HTTP is turned off: a file
	// input owns the stream, or the node is a shard worker, whose router
	// owns it.
	CodeIngestDisabled = "ingest_disabled"
	// CodeStreamingUnsupported: the connection cannot carry server-sent
	// events, or an ingest stream's request lacks its Upgrade header.
	CodeStreamingUnsupported = "streaming_unsupported"
	// CodeCheckpointsDisabled: the server runs without a checkpoint directory.
	CodeCheckpointsDisabled = "checkpoints_disabled"
	// CodeCheckpointFailed: writing or listing checkpoints failed; see the
	// message.
	CodeCheckpointFailed = "checkpoint_failed"
	// CodeShardMismatch: the request (a forwarded shard ingest, a coordinated
	// checkpoint/restore, or a checkpoint file) names a shard topology this
	// node does not run — different digest, shard index or shard count.
	CodeShardMismatch = "shard_mismatch"
	// CodeShardDesync: a forwarded shard ingest named the id watermark it
	// expected the worker to hold, and the worker's watermark disagrees — the
	// worker lost state (a crash-and-restart the router has not noticed yet)
	// or holds state the router never recorded. The router heals it by rolling
	// the worker back to the last coordinated round and replaying.
	CodeShardDesync = "shard_desync"
	// CodeShardUnavailable: a merged read (timeline, user stats, /v1/stats)
	// could not reach every shard within the retry window; the response would
	// be silently missing the unreachable shard's posts or counts, so it is
	// refused instead. Retry once the named worker is back.
	CodeShardUnavailable = "shard_unavailable"
	// CodeNotRouter: a shard-topology endpoint was called on a node running no
	// shard topology (a plain single-node daemon).
	CodeNotRouter = "not_router"
)

// ErrorResponse is the JSON error envelope of every non-2xx response.
type ErrorResponse struct {
	// Error is the human-readable description. Not stable; do not parse.
	Error string `json:"error"`
	// Code is the stable machine-readable cause, one of the Code* constants.
	Code string `json:"code"`
	// Seq is present only on disorder errors: the stream's current time
	// watermark (Unix milliseconds). Re-submit with a timestamp >= Seq.
	Seq *int64 `json:"seq,omitempty"`
}

func writeEnvelope(w http.ResponseWriter, status int, e ErrorResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(e); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

// writeError emits the error envelope — the single choke point every handler
// goes through, so the envelope shape cannot drift between endpoints.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeEnvelope(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// WriteError is the exported face of writeError for handlers mounted from
// outside the package (the shard worker/router endpoints), so every error
// they emit goes through the same envelope choke point as the built-in
// routes.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeError(w, status, code, format, args...)
}

// ServeStream upgrades r to fs's stream, which serves every frame with
// decide, and answers an Upgrade fs turns down with its envelope: 426
// streaming_unsupported without the Upgrade header, 503 engine_closed once
// fs is closed. Both ingest hops serve their stream through it.
func ServeStream(w http.ResponseWriter, r *http.Request, fs *ingeststream.Server, decide ingeststream.Decide) {
	switch err := fs.Serve(w, r, decide); {
	case err == nil:
	case errors.Is(err, ingeststream.ErrUpgradeRequired):
		writeError(w, http.StatusUpgradeRequired, CodeStreamingUnsupported,
			"%s carries the %s protocol; send Connection: Upgrade and Upgrade: %s over HTTP/1.1", r.URL.Path, fs.Protocol(), fs.Protocol())
	case errors.Is(err, ingeststream.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeEngineClosed, "%s is shutting down and opens no new stream", r.URL.Path)
	default:
		writeError(w, http.StatusInternalServerError, CodeStreamingUnsupported, "%v", err)
	}
}

// WriteJSON writes a 200 JSON response body, matching the built-in handlers'
// encoding; exported for externally mounted handlers.
func WriteJSON(w http.ResponseWriter, v any) { writeJSON(w, v) }

// writeDisorder emits the 409 time-order violation envelope, carrying the
// watermark the client must not precede.
func writeDisorder(w http.ResponseWriter, watermark int64, format string, args ...any) {
	writeEnvelope(w, http.StatusConflict, ErrorResponse{
		Error: fmt.Sprintf(format, args...),
		Code:  CodeDisorder,
		Seq:   &watermark,
	})
}

// WriteIngestError maps an IngestPost/IngestAssigned error for a post
// stamped timeMillis to its envelope: deterministic rejections (empty text,
// time disorder, stale id) keep their 4xx codes and transient engine
// conditions keep their 503s. POST /v1/ingest, each frame of
// POST /v1/ingest/stream and the shard worker's frames all answer through
// it, so a router branches on exactly the codes a direct client sees.
func WriteIngestError(w http.ResponseWriter, timeMillis int64, err error) {
	var de *DisorderError
	var se *StaleIDError
	switch {
	case errors.Is(err, ErrEmptyText):
		writeError(w, http.StatusBadRequest, CodeEmptyText, "empty text")
	case errors.As(err, &de):
		writeDisorder(w, de.Watermark,
			"post at %d arrived after %d; the stream must be time-ordered", timeMillis, de.Watermark)
	case errors.As(err, &se):
		writeError(w, http.StatusConflict, CodeDisorder, "%v", se)
	default:
		writeOfferError(w, err)
	}
}

// writeBodyError answers an ingest body that could not be read or decoded:
// 413 body_too_large past the ingest bound, 400 bad_json otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "request body exceeds the %d-byte ingest bound", tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadJSON, "bad JSON: %v", err)
}

// writeOfferError maps an engine Offer/OfferBatch error to its envelope:
// shutdown is 503 engine_closed, anything else 503 engine_error; the client
// may retry either.
func writeOfferError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, stream.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeEngineClosed, "%v", err)
	default:
		writeError(w, http.StatusServiceUnavailable, CodeEngineError, "%v", err)
	}
}
