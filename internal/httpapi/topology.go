package httpapi

import "net/http"

// This file is the topology surface of a sharded deployment: every server
// mounts GET /v1/admin/topology, but only nodes participating in a shard
// topology (a router or a shard worker, per the config's router or shard
// section) install a provider — a plain single-node daemon answers 503
// not_router. The shard package installs the providers; keeping the response
// types here pins them next to the rest of the public JSON contract.

// ShardStatus is one shard's view inside a router's topology response.
type ShardStatus struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Peer is the worker's base URL (router responses only).
	Peer string `json:"peer,omitempty"`
	// Watermark is the highest post id forwarded to (worker responses:
	// ingested by) the shard.
	Watermark uint64 `json:"watermark"`
	// Pending counts posts forwarded since the last coordinated checkpoint —
	// the replay buffer a worker crash would be resynced from.
	Pending int `json:"pending"`
}

// TopologyResponse is the GET /v1/admin/topology body.
type TopologyResponse struct {
	// Mode is "router" or "worker".
	Mode string `json:"mode"`
	// Shard is the node's shard index; -1 on a router.
	Shard int `json:"shard"`
	// Shards is the total shard count.
	Shards int `json:"shards"`
	// Digest is the component→shard assignment digest (16 hex digits); every
	// participant must agree on it.
	Digest string `json:"digest"`
	// Watermark is the node's post-id watermark: a worker's highest ingested
	// id, a router's highest merged id.
	Watermark uint64 `json:"watermark"`
	// CoordinatedWatermark is the watermark of the newest coordinated
	// checkpoint round (0 before the first round).
	CoordinatedWatermark uint64 `json:"coordinatedWatermark"`
	// PerShard holds the router's per-shard forwarding state; empty on
	// workers.
	PerShard []ShardStatus `json:"perShard,omitempty"`
}

// SetTopologyProvider installs the GET /v1/admin/topology answer. Install it
// before serving traffic; without one the endpoint answers 503 not_router.
func (s *Server) SetTopologyProvider(fn func() TopologyResponse) { s.topoFn = fn }

func (s *Server) handleTopology(w http.ResponseWriter, _ *http.Request) {
	if s.topoFn == nil {
		writeError(w, http.StatusServiceUnavailable, CodeNotRouter,
			"this node runs no shard topology; start firehosed with a shard or router config section")
		return
	}
	writeJSON(w, s.topoFn())
}

// SetTopology stamps the server's snapshot fingerprint with its shard
// topology: Snapshot writes (shard, shards, digest) into the "server"
// section and Restore refuses a snapshot carrying a different topology with
// a descriptive shard_mismatch error. A plain server keeps the zero
// topology (shard 0 of 1, digest 0), so pre-sharding single-node
// deployments and worker checkpoints cannot be cross-restored by accident.
// Call before serving traffic or snapshotting.
func (s *Server) SetTopology(shard, shards int, digest uint64) {
	s.topoShard, s.topoShards, s.topoDigest = shard, shards, digest
}
