package httpapi

import (
	"errors"
	"fmt"

	"firehose/internal/connector"
	"firehose/internal/core"
)

// This file is the single ingest seam shared by the HTTP handlers and the
// connector layer's pipeline runner: every post enters the engine through
// IngestPost (or the batch handler's equivalent section), every delivery
// leaves through deliver(), and both run under ingestMu so a snapshot can
// quiesce the whole surface and capture an exact id watermark.

// ErrEmptyText rejects a post with no content. The rejection is deterministic
// (a replayed stream rejects it again), so it is marked connector.ErrRejected.
var ErrEmptyText = connector.Rejection(errors.New("httpapi: empty text"))

// ErrIngestDisabled rejects push ingestion when the daemon runs a file input
// or is a shard worker: the pipeline (or the router) owns the stream's time
// order, and interleaved pushes would corrupt it.
var ErrIngestDisabled = errors.New("httpapi: push ingest is disabled: posts arrive through the configured pipeline input")

// DisorderError rejects a post that precedes the stream's time watermark. The
// rejection is deterministic for a replayed prefix — the watermark at that
// point in the stream is a pure function of the posts before it — so it
// matches connector.ErrRejected.
type DisorderError struct {
	// Watermark is the stream time (Unix milliseconds) the post must not
	// precede.
	Watermark int64
}

func (e *DisorderError) Error() string {
	return fmt.Sprintf("httpapi: post precedes the stream time watermark %d; the stream must be time-ordered", e.Watermark)
}

// Is marks a disorder as a deterministic rejection for the connector runner.
func (*DisorderError) Is(target error) bool { return target == connector.ErrRejected }

// IngestPost validates, identifies and offers one post, returning its
// assigned id and the users whose timelines received it. It is the
// connector runner's IngestFunc and the core of POST /v1/ingest and of each
// POST /v1/ingest/stream frame.
//
// The whole step — watermark check, id allocation, engine offer, delivery
// fan-out — holds ingestMu (shared), so Snapshot's exclusive acquisition
// cannot observe an allocated id whose post has not entered the engine: the
// captured nextID is an exact watermark. An offer the engine refuses rolls
// the id allocation back when no concurrent ingest has allocated past it,
// so a single-writer pipeline (the connector runner) burns no ids on a
// failed router forward or a shutdown and replays reproduce identical ids.
// The time watermark rolls back with it, so the refused post can be retried.
func (s *Server) IngestPost(author int32, timeMillis int64, text string) (uint64, []int32, error) {
	return s.ingestOne(0, author, timeMillis, text)
}

// StaleIDError rejects an assigned-id ingest whose id does not advance the
// server's id watermark: the post was already ingested (a duplicate replay
// beyond the resync window) or the ids arrived out of order.
type StaleIDError struct {
	// ID is the rejected assigned id.
	ID uint64
	// Watermark is the server's current id watermark; assigned ids must
	// exceed it.
	Watermark uint64
}

func (e *StaleIDError) Error() string {
	return fmt.Sprintf("httpapi: assigned id %d does not advance the id watermark %d; shard ingest ids must be strictly increasing", e.ID, e.Watermark)
}

// IngestAssigned offers one post under a caller-assigned id — the shard
// worker's ingest seam, where the router owns the global id space and each
// worker sees a strictly increasing (not dense) subsequence of it. The same
// quiesce discipline as IngestPost applies: the whole step holds ingestMu
// shared, ids advance monotonically, and a refused offer rolls the
// watermarks back so a retried forward burns nothing. Time-order and
// stale-id violations are deterministic rejections.
func (s *Server) IngestAssigned(id uint64, author int32, timeMillis int64, text string) ([]int32, error) {
	if id == 0 { // no post carries id 0, and ingestOne reads it as "allocate"
		return nil, &StaleIDError{ID: id, Watermark: s.IDWatermark()}
	}
	_, users, err := s.ingestOne(id, author, timeMillis, text)
	return users, err
}

// ingestOne is the single-post admission step behind IngestPost (id 0: take
// the next id) and IngestAssigned (id: the caller's, which must advance the
// id watermark): time check, id step, offer, rollback of a refused offer,
// delivery — all under ingestMu shared.
func (s *Server) ingestOne(id uint64, author int32, timeMillis int64, text string) (uint64, []int32, error) {
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	if text == "" {
		return 0, nil, ErrEmptyText
	}

	s.mu.Lock()
	prevID, prevT := s.nextID, s.lastT
	switch {
	case id == 0:
		id = prevID + 1
	case id <= prevID:
		s.mu.Unlock()
		return 0, nil, &StaleIDError{ID: id, Watermark: prevID}
	}
	if timeMillis < prevT {
		s.mu.Unlock()
		return 0, nil, &DisorderError{Watermark: prevT}
	}
	s.nextID, s.lastT = id, timeMillis
	s.mu.Unlock()

	post := core.NewPost(id, author, timeMillis, text)
	users, err := s.engine.Offer(post)
	if err != nil {
		s.mu.Lock()
		if s.nextID == id {
			s.nextID, s.lastT = prevID, prevT
		}
		s.mu.Unlock()
		return 0, nil, err
	}
	if users == nil {
		users = []int32{}
	}
	if len(users) > 0 {
		s.deliver(TimelinePost{ID: post.ID, Author: post.Author, TimeMillis: post.Time, Text: post.Text}, users)
	}
	return id, users, nil
}

// deliver routes one delivered post through the delivery hook (the connector
// dispatcher when one is mounted, the SSE broker otherwise).
func (s *Server) deliver(p TimelinePost, users []int32) {
	s.mu.Lock()
	hook := s.deliveryHook
	s.mu.Unlock()
	if hook != nil {
		hook(p, users)
		return
	}
	s.broker.publish(users, p)
}

// SetDeliveryHook replaces the default delivery fan-out (publish to the SSE
// broker) with fn — the connector dispatcher's entry point. Pass nil to
// restore the default. Set it before serving traffic; the hook runs on
// ingest goroutines and must not block indefinitely.
func (s *Server) SetDeliveryHook(fn func(p TimelinePost, users []int32)) {
	s.mu.Lock()
	s.deliveryHook = fn
	s.mu.Unlock()
}

// PublishSSE publishes one delivery to the SSE broker directly, bypassing the
// delivery hook. The connector layer's "sse" output wraps it, so mounting a
// dispatcher as the hook keeps SSE fan-out working without recursion.
func (s *Server) PublishSSE(p TimelinePost, users []int32) {
	s.broker.publish(users, p)
}

// DisableHTTPIngest makes POST /v1/ingest, /v1/ingest/batch and
// /v1/ingest/stream answer 503 ingest_disabled: a connector input or a
// router owns the stream, and pushed posts would interleave with it. Read
// endpoints are unaffected.
func (s *Server) DisableHTTPIngest() {
	s.mu.Lock()
	s.httpOnlyErr = ErrIngestDisabled
	s.mu.Unlock()
}

// httpIngestDisabled reports whether push ingestion was disabled.
func (s *Server) httpIngestDisabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.httpOnlyErr != nil
}

// IDWatermark returns the current id watermark: the id of the most recently
// ingested post (0 before the first). The shard worker reports it as the
// shard's watermark and its restore endpoint uses it to tell a fresh worker
// from one holding un-coordinated state.
func (s *Server) IDWatermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// SnapshotWatermark returns the id watermark captured by the most recent
// Snapshot (or Restore): every post with id <= watermark is inside that
// durable state, and no post outside it has a smaller id. The daemon turns
// it into connector acks after each durable checkpoint.
func (s *Server) SnapshotWatermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}
