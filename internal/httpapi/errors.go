package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

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
	// CodeQueueFull: a fail-fast worker queue was at capacity; retry later.
	CodeQueueFull = "queue_full"
	// CodeEngineClosed: the engine is shutting down.
	CodeEngineClosed = "engine_closed"
	// CodeEngineError: the engine rejected the post for an unanticipated
	// reason; see the message.
	CodeEngineError = "engine_error"
	// CodeIngestDisabled: the daemon runs a connector input (file or tcp)
	// that owns the stream; push ingestion over HTTP is turned off.
	CodeIngestDisabled = "ingest_disabled"
	// CodeStreamingUnsupported: the connection cannot carry server-sent events.
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

// WriteIngestError maps an IngestPost/IngestAssigned error to its envelope —
// the exported face of the handlers' own mapping, for the shard worker's
// forwarded-ingest endpoints: deterministic rejections (empty text, time
// disorder, stale id) keep their 4xx codes and transient engine conditions
// keep their 503s, so a router can branch on exactly the codes a direct
// client would see.
func WriteIngestError(w http.ResponseWriter, err error) {
	var de *DisorderError
	var se *StaleIDError
	switch {
	case errors.Is(err, ErrEmptyText):
		writeError(w, http.StatusBadRequest, CodeEmptyText, "empty text")
	case errors.As(err, &de):
		writeDisorder(w, de.Watermark,
			"post precedes the stream time watermark %d; the stream must be time-ordered", de.Watermark)
	case errors.As(err, &se):
		writeError(w, http.StatusConflict, CodeDisorder, "%v", se)
	default:
		writeOfferError(w, err)
	}
}

// writeOfferError maps an engine Offer/OfferBatch error to its envelope:
// backpressure and shutdown are 503 (the client may retry), anything else is
// an engine error.
func writeOfferError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, stream.ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, CodeQueueFull, "%v", err)
	case errors.Is(err, stream.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeEngineClosed, "%v", err)
	default:
		writeError(w, http.StatusServiceUnavailable, CodeEngineError, "%v", err)
	}
}
