// Package connector is the daemon's pluggable ingress/egress layer: Input
// plugins feed posts into the diversification engine and Output plugins
// receive every delivered post, in the style of Benthos/Bento pipelines
// (input → engine → outputs) but stdlib-only.
//
// # Delivery contract
//
// The layer provides at-least-once semantics wired to the engine's durable
// checkpoint watermark:
//
//   - Every message an Input hands out is ingested exactly once per process
//     lifetime and assigned a monotone pipeline sequence number (the HTTP
//     layer's post id).
//   - An Input's Ack cursor only advances once the message's sequence number
//     is covered by a durable checkpoint (Runner.Acknowledge, driven by the
//     checkpoint manager's post-write hook). Crashing between ingest and
//     checkpoint therefore replays the un-checkpointed suffix on restart.
//   - Because the engine restores to the same watermark and decides
//     deterministically, the replayed suffix produces the same ids and the
//     same deliveries: Outputs see every delivered post at least once, and
//     exactly once in any run that does not crash (the post id is the
//     idempotency key for downstream dedup).
//
// Durable inputs (the file input) persist the acked cursor crash-safely next
// to their source. HTTP push ingest is not an Input at all — the daemon's
// /v1/ingest handlers and its /v1/ingest/stream frames feed the engine
// directly and answer each post synchronously, so a sender's at-least-once
// window is its own retry of an unanswered post.
package connector

import (
	"context"
	"errors"
	"io"
)

// ErrClosed is returned by Read, Write and Ack after Close.
var ErrClosed = errors.New("connector: closed")

// Message is one post read from an Input, before it has an engine identity.
type Message struct {
	// Author is the posting author's dense id.
	Author int32
	// TimeMillis is the post timestamp (Unix milliseconds).
	TimeMillis int64
	// Text is the post content.
	Text string

	// Seq is the pipeline-assigned sequence number (the post id), set by the
	// runner after a successful ingest; zero until then and for messages the
	// engine rejected (disorder, empty text).
	Seq uint64
	// Pos is the input-private resume cursor recorded at Read time (for the
	// file input, the byte offset just past the message's line). Consumers
	// must treat it as opaque and must not modify it.
	Pos int64
}

// Delivery is one delivered post fanned out to every Output.
type Delivery struct {
	// ID is the post's pipeline sequence number — the idempotency key a
	// downstream consumer dedups replays on.
	ID uint64 `json:"id"`
	// Author is the posting author's dense id.
	Author int32 `json:"author"`
	// TimeMillis is the post timestamp (Unix milliseconds).
	TimeMillis int64 `json:"timeMillis"`
	// Text is the post content.
	Text string `json:"text"`
	// Users are the subscribers whose diversified timelines got the post.
	Users []int32 `json:"users"`
}

// Input is a post source with replayable, ack-gated consumption.
//
// Lifecycle: Connect once, Read until io.EOF (or forever for tailing and
// push inputs), Ack as checkpoints cover read messages, Close. Close is
// idempotent; Read and Ack after Close return ErrClosed. Read honors its
// context: cancellation returns ctx.Err() without consuming a message.
type Input interface {
	// Connect opens the source. It is a no-op on an already-connected input.
	Connect(ctx context.Context) error
	// Read blocks until the next message, the end of a finite source
	// (io.EOF), context cancellation, or Close (ErrClosed).
	Read(ctx context.Context) (*Message, error)
	// Ack records that msg — and, cumulatively, every message read before it
	// — is durably processed: a restarted input must resume after msg.
	// Durable inputs persist the cursor crash-safely before returning;
	// non-replayable inputs accept the ack as a no-op.
	Ack(msg *Message) error
	// Close releases the source. Idempotent.
	Close() error
}

// Output is a delivery sink.
//
// Lifecycle: Connect once, Write per delivery, Close. Close flushes any
// buffered deliveries (bounded) and is idempotent; Write after Close returns
// ErrClosed. Write may buffer: an Output that transmits asynchronously (the
// webhook egress) applies bounded retry internally and surfaces terminal
// failures through its stats, never by blocking the pipeline forever.
type Output interface {
	// Connect validates the sink and starts any transmit machinery. It is a
	// no-op on an already-connected output.
	Connect(ctx context.Context) error
	// Write hands one delivery to the sink. A bounded-queue output may block
	// until space frees (its sender's bounded retry guarantees progress) or
	// until ctx is cancelled.
	Write(ctx context.Context, d Delivery) error
	// Close flushes buffered deliveries within the output's flush bound and
	// releases the sink. Idempotent.
	Close() error
}

// Stat is one connector component's counters, surfaced on /metrics as the
// firehose_connector_* families.
type Stat struct {
	// Component names the component ("input:file", "output:webhook#0", …).
	Component string
	// Read counts messages handed out by an input's Read.
	Read uint64
	// Ingested counts messages the engine accepted for a decision.
	Ingested uint64
	// Skipped counts messages dropped before the engine decided them
	// (malformed, out of time order, empty text). Skips are deterministic:
	// a replay skips them again, so they ack with their predecessor.
	Skipped uint64
	// Acked counts messages covered by a durable checkpoint and acked to the
	// input.
	Acked uint64
	// AckSeq is the highest checkpoint watermark acked so far.
	AckSeq uint64
	// Written counts deliveries accepted by an output's Write.
	Written uint64
	// Retries counts transmit retries (webhook backoff attempts).
	Retries uint64
	// Dropped counts deliveries abandoned after bounded retry.
	Dropped uint64
	// Errors counts component errors (failed writes, failed acks).
	Errors uint64
}

// StatsSource is anything exposing connector counters; the HTTP layer mounts
// one on /metrics.
type StatsSource interface {
	ConnectorStats() []Stat
}

// IsEOF reports whether an input error means "source exhausted" rather than
// failure.
func IsEOF(err error) bool { return errors.Is(err, io.EOF) }
