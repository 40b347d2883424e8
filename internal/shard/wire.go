package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The router↔worker wire protocol rides on each worker's existing HTTP
// listener, so the inter-shard transport needs no second port and reuses the
// daemon's error envelope and golden-tested codes:
//
//	POST /v1/shard/stream      Upgrade: firehose-shard/2 — the data plane
//	POST /v1/shard/checkpoint  write the coordinated tagged checkpoint
//	POST /v1/shard/restore     roll back to a coordination round
//	GET  /v1/shard/assignment  the worker's routing table (read-only)
//
// # The boot barrier
//
// The routing table is planned by every worker, adopted and verified by the
// router. Before it restores or serves, a router polls every worker's
// GET /v1/admin/topology until it answers, and requires each to report the
// router's own inputs fingerprint (a SHA-256 over the graph source and the
// thresholds, see httpapi.TopologyResponse.Inputs), its own shard index, the
// router's shard count and one digest shared by all. It then fetches shard
// 0's table once from GET /v1/shard/assignment, rebuilds it with FromTable
// and requires the recomputed digest to be that shared digest. Any
// disagreement is a shard_mismatch refusal that stops the router's boot; a
// worker that answers the table request 404 or 405 runs another firehosed
// build and is refused at once.
//
// # The stream
//
// Both ingest hops speak one framed stream (internal/ingeststream, which
// documents the frame layout): a client streams posts into any node's
// POST /v1/ingest/stream (Upgrade: firehose-ingest/1) with id 0 and prev 0,
// and the router holds one persistent stream per shard, opened lazily on
// the first forward, whose frames carry the id the router assigned and, in
// prev, the id watermark the worker must hold for the frame to land. An OK
// reply carries the ingested post's id, and the router checks it against
// the id it forwarded. An error reply carries the bytes
// httpapi.WriteError / WriteIngestError would have sent over HTTP, so the
// router classifies refusals by the same machine codes as ever.
//
// A sub-batch — and a resync replay — is the same frames pipelined: written
// back to back, replies read in order. Each frame names in prev the id
// watermark it must land on, so once frame i is refused frame i+1's prev no
// longer matches and the worker refuses the rest of the pipeline by itself
// (409 shard_desync): the ingested part of a pipeline is always a prefix.
//
// The Upgrade request carries the Firehose-Topology header; a worker refuses a
// router planned over a different graph, shard count or shard index with
// 409 shard_mismatch before the stream exists. A worker's assignment cannot
// change under a live connection, so frames are not re-checked against it;
// everything else (id, owner shard, prev, time order, text) is checked per
// frame. Any I/O error, short frame, mismatched reply id or expired reply
// bound drops the stream; the router resyncs the worker over the control
// endpoints and the next forward redials.
//
// # Control
//
// Checkpoint, restore and GET /v1/admin/topology stay JSON over plain HTTP:
// they run once per coordination round or recovery, their envelopes are
// golden-pinned, and each carries the Firehose-Topology header per request.

// TopologyHeader carries the sender's view of the receiver's shard identity
// on the stream's Upgrade request and on every control request:
// "<16-hex assignment digest>/<shard>/<shards>".
const TopologyHeader = "Firehose-Topology"

// streamPath is the worker endpoint the router upgrades.
const streamPath = "/v1/shard/stream"

// assignmentPath is the worker endpoint serving its routing table.
const assignmentPath = "/v1/shard/assignment"

// maxTableBytes bounds an assignment table read off the network: 16 MiB holds
// the owner vector of well over a million authors.
const maxTableBytes = 1 << 24

// AssignmentTable is the GET /v1/shard/assignment body: every input of the
// assignment digest, so FromTable rebuilds the byte-identical routing and
// the same digest.
type AssignmentTable struct {
	// Shards is the shard count the table was planned for.
	Shards int `json:"shards"`
	// Authors is the size of the author universe; len(Owners) must equal it.
	Authors int `json:"authors"`
	// Edges is the edge count of the planned author graph G(λa).
	Edges int `json:"edges"`
	// LambdaA is the planned graph's author-similarity threshold λa.
	LambdaA float64 `json:"lambdaA"`
	// Owners maps each author id to its owning shard.
	Owners []int32 `json:"owners"`
}

// decodeTable reads one assignment table of at most maxTableBytes.
func decodeTable(r io.Reader) (AssignmentTable, error) {
	var t AssignmentTable
	if err := json.NewDecoder(io.LimitReader(r, maxTableBytes)).Decode(&t); err != nil {
		return AssignmentTable{}, fmt.Errorf("shard: decoding assignment table: %w", err)
	}
	return t, nil
}

// formatTopology renders the TopologyHeader value for a request addressed to
// the given shard.
func formatTopology(digest uint64, shard, shards int) string {
	return fmt.Sprintf("%016x/%d/%d", digest, shard, shards)
}

// parseTopology parses a TopologyHeader value.
func parseTopology(v string) (digest uint64, shard, shards int, err error) {
	parts := strings.Split(v, "/")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("shard: malformed %s header %q", TopologyHeader, v)
	}
	digest, err = strconv.ParseUint(parts[0], 16, 64)
	if err == nil {
		shard, err = strconv.Atoi(parts[1])
	}
	if err == nil {
		shards, err = strconv.Atoi(parts[2])
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("shard: malformed %s header %q", TopologyHeader, v)
	}
	return digest, shard, shards, nil
}

// CheckpointRequest is the POST /v1/shard/checkpoint body: the router's
// global id watermark naming the coordination round, and what the router
// expects of the worker's state. The worker checks both expectations before
// it writes, under the lock that serializes its rounds, and writes nothing
// when one fails: an id watermark other than ShardSeq is refused 409
// shard_desync, inputs other than Inputs 409 shard_mismatch. So on a healthy
// fleet one request per shard is the whole round, and the router resyncs a
// worker only after such a refusal.
type CheckpointRequest struct {
	// Watermark is the round's tag, the router's global id watermark.
	Watermark uint64 `json:"watermark"`
	// ShardSeq is the shard's own id watermark as the router's replay
	// buffer predicts it: the worker's state must hold exactly the posts
	// forwarded to it, no fewer (a restart) and no more (a phantom
	// sub-batch).
	ShardSeq uint64 `json:"shardSeq"`
	// Inputs is the engine inputs fingerprint the router adopted its
	// assignment with; empty on a router that planned its own, which
	// skips the check.
	Inputs string `json:"inputs,omitempty"`
}

// CheckpointResponse confirms a durably written tagged checkpoint.
type CheckpointResponse struct {
	// Watermark echoes the round's tag.
	Watermark uint64 `json:"watermark"`
	// ShardSeq is the worker's own id watermark inside the written state —
	// the highest global id this shard had ingested.
	ShardSeq uint64 `json:"shardSeq"`
	// File is the tagged checkpoint's file name.
	File string `json:"file"`
}

// RestoreRequest is the POST /v1/shard/restore body: roll the worker back to
// the coordination round tagged with the router's checkpointed watermark.
type RestoreRequest struct {
	Watermark uint64 `json:"watermark"`
}

// RestoreResponse confirms a rollback.
type RestoreResponse struct {
	// Restored is false only for the watermark-0 case: the router is cold and
	// the worker confirmed it is fresh, so there was nothing to roll back.
	Restored bool `json:"restored"`
	// Watermark echoes the restored round's tag (0 when Restored is false).
	Watermark uint64 `json:"watermark"`
	// ShardSeq is the worker's id watermark after the rollback; the router
	// replays exactly the pending posts with larger ids.
	ShardSeq uint64 `json:"shardSeq"`
}
