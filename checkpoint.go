package firehose

// Public checkpoint/restore surface. A snapshot is a versioned, checksummed
// binary stream (see internal/checkpoint) carrying everything a freshly
// constructed service needs to resume the decision sequence exactly where
// the snapshotted one stopped: bin contents, counters, sequence watermarks.
// What a snapshot does NOT carry is the construction inputs themselves — the
// author graph, subscriptions and thresholds are code/configuration, often
// hundreds of megabytes, and restoring into a differently configured service
// would silently produce wrong decisions. Instead every snapshot header
// embeds a fingerprint of those inputs, and Restore refuses a snapshot whose
// fingerprint does not match the target's.

import (
	"fmt"
	"hash/fnv"
	"io"

	"firehose/internal/checkpoint"
	"firehose/internal/core"
)

// snapMeta identifies the construction inputs of a service instance. It is
// computed once at construction and written into (and validated against)
// every snapshot header.
type snapMeta struct {
	algorithm  string // inner.Name(): discriminates alg and M_*/S_*/Custom variants
	numAuthors int
	users      int
	workers    int    // parallel only; 0 otherwise
	cfgHash    uint64 // FNV-1a over thresholds and subscription lists
	// Shard topology (ServiceOptions.Topology): which horizontal shard of a
	// partitioned deployment this service is. A non-sharded service is the
	// normalized (0, 1, 0) so its snapshots and a shard-0-of-1 deployment's
	// interchange, but a shard worker's snapshot can never restore into a
	// differently placed service.
	shard      int
	shards     int
	topoDigest uint64
}

// Topology identifies a service's place in a horizontally sharded deployment
// (see internal/shard and the shard section of firehosed's config): a post
// stream partitioned by author component, one service per shard. It
// participates in the snapshot fingerprint so a checkpoint names the exact
// shard that wrote it — Restore refuses a snapshot from a different shard
// index, shard count or assignment digest with a descriptive shard_mismatch
// error.
type Topology struct {
	// Shard is this service's shard index in [0, Shards).
	Shard int
	// Shards is the deployment's total shard count.
	Shards int
	// Digest fingerprints the author → shard assignment (and the graph it was
	// derived from); every participant must agree on it.
	Digest uint64
}

// applyTopology validates and stamps opts' topology into the fingerprint; nil
// normalizes to the single-node (0, 1, 0).
func (m *snapMeta) applyTopology(t *Topology) error {
	if t == nil {
		m.shard, m.shards, m.topoDigest = 0, 1, 0
		return nil
	}
	if t.Shards < 1 {
		return fmt.Errorf("firehose: Topology.Shards must be at least 1, got %d", t.Shards)
	}
	if t.Shard < 0 || t.Shard >= t.Shards {
		return fmt.Errorf("firehose: Topology.Shard must be in [0,%d), got %d", t.Shards, t.Shard)
	}
	m.shard, m.shards, m.topoDigest = t.Shard, t.Shards, t.Digest
	return nil
}

// metaFor fingerprints a service's construction inputs. The hash covers the
// thresholds (uniform or per-user) and the full subscription lists, so two
// services built over the same graph size but different subscriptions or λ
// values get different fingerprints. Config.Index is deliberately not
// hashed: the index policy changes lookup mechanics, never decisions, and
// snapshots carry only ring contents (indexes are rebuilt on restore) — so
// a snapshot taken under one policy restores into a service running another.
func metaFor(algorithm string, g *AuthorGraph, subscriptions [][]AuthorID, cfgs []Config) snapMeta {
	h := fnv.New64a()
	w64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	for _, cfg := range cfgs {
		w64(uint64(cfg.LambdaC))
		w64(uint64(cfg.LambdaT))
		w64(uint64(int64(cfg.LambdaA * 1e9)))
	}
	for _, subs := range subscriptions {
		w64(uint64(len(subs)))
		for _, a := range subs {
			w64(uint64(uint32(a)))
		}
	}
	return snapMeta{
		algorithm:  algorithm,
		numAuthors: g.NumAuthors(),
		users:      len(subscriptions),
		cfgHash:    h.Sum64(),
		shards:     1,
	}
}

// writeHeader appends the fingerprint section after the encoder's own
// magic/version/kind preamble.
func (m snapMeta) writeHeader(enc *checkpoint.Encoder) {
	enc.String(m.algorithm)
	enc.Uvarint(uint64(m.numAuthors))
	enc.Uvarint(uint64(m.users))
	enc.Uvarint(uint64(m.workers))
	enc.U64(m.cfgHash)
	enc.Varint(int64(m.shard))
	enc.Uvarint(uint64(m.shards))
	enc.U64(m.topoDigest)
}

// checkHeader validates a snapshot's fingerprint section against this
// instance, failing the decoder with a descriptive mismatch error.
func (m snapMeta) checkHeader(dec *checkpoint.Decoder) {
	if alg := dec.String(checkpoint.MaxStringLen); dec.Err() == nil && alg != m.algorithm {
		dec.Failf("snapshot was taken from algorithm %s, this service runs %s", alg, m.algorithm)
		return
	}
	if n := dec.Uvarint(); dec.Err() == nil && n != uint64(m.numAuthors) {
		dec.Failf("snapshot was taken over %d authors, this service has %d", n, m.numAuthors)
		return
	}
	if n := dec.Uvarint(); dec.Err() == nil && n != uint64(m.users) {
		dec.Failf("snapshot was taken with %d users, this service has %d", n, m.users)
		return
	}
	if n := dec.Uvarint(); dec.Err() == nil && n != uint64(m.workers) {
		dec.Failf("snapshot was taken with %d workers, this service has %d", n, m.workers)
		return
	}
	if hash := dec.U64(); dec.Err() == nil && hash != m.cfgHash {
		dec.Failf("snapshot configuration fingerprint %016x does not match this service's %016x (different thresholds or subscriptions)", hash, m.cfgHash)
		return
	}
	snapShard := int(dec.Varint())
	snapShards := int(dec.Uvarint())
	snapDigest := dec.U64()
	if dec.Err() == nil && (snapShard != m.shard || snapShards != m.shards || snapDigest != m.topoDigest) {
		dec.Failf("shard_mismatch: snapshot was taken by shard %d/%d (topology digest %016x), this service is shard %d/%d (digest %016x); restore it into a service with the matching Topology",
			snapShard, snapShards, snapDigest, m.shard, m.shards, m.topoDigest)
	}
}

// openSnapshot starts decoding a snapshot stream: format preamble, kind
// check, fingerprint check.
func openSnapshot(r io.Reader, kind string, m snapMeta) (*checkpoint.Decoder, error) {
	dec, err := checkpoint.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	if dec.Kind() != kind {
		return nil, fmt.Errorf("firehose: snapshot holds a %s, cannot restore into a %s", dec.Kind(), kind)
	}
	m.checkHeader(dec)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return dec, nil
}

// Snapshot kinds, written into the stream preamble so a snapshot of one
// service type cannot be restored into another.
const (
	kindDiversifier      = "firehose.Diversifier"
	kindMultiUserService = "firehose.MultiUserService"
	kindParallelService  = "firehose.ParallelService"
)

// Snapshot writes the diversifier's complete decision state to w. The
// snapshot is deterministic (identical state yields identical bytes) and
// self-validating: a version/kind preamble, a fingerprint of the
// construction inputs, and a trailing checksum. Every shipped algorithm, under
// every index policy, supports checkpointing.
func (d *Diversifier) Snapshot(w io.Writer) error {
	s, ok := d.inner.(core.StateSnapshotter)
	if !ok {
		return fmt.Errorf("firehose: algorithm %s does not support checkpointing", d.inner.Name())
	}
	enc := checkpoint.NewEncoder(w, kindDiversifier)
	d.meta.writeHeader(enc)
	enc.Uvarint(d.nextID)
	if err := s.SnapshotState(enc); err != nil {
		return err
	}
	return enc.Finish()
}

// Restore replaces the diversifier's state with a snapshot previously
// written by Snapshot on an identically constructed diversifier (same
// algorithm, graph, subscriptions and config — validated via the embedded
// fingerprint). Truncated or corrupted snapshots fail with a descriptive
// error; they never panic. On error discard the diversifier: nearly all
// failures (format, fingerprint, structural and per-entry validation) are
// detected before any state is touched, but a checksum mismatch surfacing
// only at the end of the stream is reported after the swap.
func (d *Diversifier) Restore(r io.Reader) error {
	s, ok := d.inner.(core.StateSnapshotter)
	if !ok {
		return fmt.Errorf("firehose: algorithm %s does not support checkpointing", d.inner.Name())
	}
	dec, err := openSnapshot(r, kindDiversifier, d.meta)
	if err != nil {
		return err
	}
	nextID := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := s.RestoreState(dec); err != nil {
		return err
	}
	if err := dec.Finish(); err != nil {
		// RestoreState on a single-instance engine is atomic, but the stream
		// had trailing corruption the per-section decode could not see.
		// The engine state was already swapped; reject the restore loudly —
		// callers must discard the instance.
		return err
	}
	d.nextID = nextID
	return nil
}

// Snapshot writes the service's complete decision state to w; see
// Diversifier.Snapshot for the format guarantees. Timelines are not part of
// the snapshot — they are derived view state.
func (m *MultiUserService) Snapshot(w io.Writer) error {
	s, ok := m.inner.(core.StateSnapshotter)
	if !ok {
		return fmt.Errorf("firehose: service %s does not support checkpointing", m.inner.Name())
	}
	enc := checkpoint.NewEncoder(w, kindMultiUserService)
	m.meta.writeHeader(enc)
	if err := s.SnapshotState(enc); err != nil {
		return err
	}
	return enc.Finish()
}

// Restore replaces the service's state with a snapshot previously written by
// Snapshot on an identically constructed service. Unlike
// Diversifier.Restore, a failed multi-user restore can leave the service
// with a mix of restored and prior per-user state: discard the service on
// error and construct a fresh one.
func (m *MultiUserService) Restore(r io.Reader) error {
	s, ok := m.inner.(core.StateSnapshotter)
	if !ok {
		return fmt.Errorf("firehose: service %s does not support checkpointing", m.inner.Name())
	}
	dec, err := openSnapshot(r, kindMultiUserService, m.meta)
	if err != nil {
		return err
	}
	if err := s.RestoreState(dec); err != nil {
		return err
	}
	return dec.Finish()
}

// Snapshot quiesces the service and writes its complete decision state to w:
// intake pauses, every in-flight decision drains, each worker shard is
// serialized under its decision lock, and ingestion resumes before Snapshot
// returns. Every Delivery issued before the call resolves at the cut, so the
// snapshot captures exactly the posts offered so far. Safe to call
// concurrently with Offer; returns ErrClosed after Close.
func (s *ParallelService) Snapshot(w io.Writer) error {
	enc := checkpoint.NewEncoder(w, kindParallelService)
	s.meta.writeHeader(enc)
	if err := s.inner.SnapshotState(enc); err != nil {
		return err
	}
	return enc.Finish()
}

// Restore replaces the service's state with a snapshot previously written by
// Snapshot on an identically constructed service (including worker count —
// shards do not re-split). Call it before ingestion starts, or accept that
// posts offered concurrently with Restore interleave with the state swap. On
// error, discard the service and construct a fresh one.
func (s *ParallelService) Restore(r io.Reader) error {
	dec, err := openSnapshot(r, kindParallelService, s.meta)
	if err != nil {
		return err
	}
	if err := s.inner.RestoreState(dec); err != nil {
		return err
	}
	return dec.Finish()
}
