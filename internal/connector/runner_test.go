package connector_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"firehose/internal/connector"
	"firehose/internal/stream"
)

// stubInput is an in-memory Input recording which messages were acked.
type stubInput struct {
	msgs chan *connector.Message

	mu     sync.Mutex
	closed bool
	acks   []uint64 // Seq values handed to Ack

	closeCh chan struct{}
}

func newStubInput(msgs ...*connector.Message) *stubInput {
	in := &stubInput{msgs: make(chan *connector.Message, len(msgs)+1), closeCh: make(chan struct{})}
	for _, m := range msgs {
		in.msgs <- m
	}
	return in
}

func (in *stubInput) Connect(context.Context) error { return nil }

func (in *stubInput) Read(ctx context.Context) (*connector.Message, error) {
	select {
	case m := <-in.msgs:
		return m, nil
	default:
	}
	select {
	case m := <-in.msgs:
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-in.closeCh:
		return nil, connector.ErrClosed
	}
}

func (in *stubInput) Ack(msg *connector.Message) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return connector.ErrClosed
	}
	in.acks = append(in.acks, msg.Seq)
	return nil
}

func (in *stubInput) Close() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.closed {
		in.closed = true
		close(in.closeCh)
	}
	return nil
}

func (in *stubInput) ackSeqs() []uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]uint64(nil), in.acks...)
}

func msg(author int32, tm int64, text string) *connector.Message {
	return &connector.Message{Author: author, TimeMillis: tm, Text: text}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRunnerAckAfterCheckpoint is the at-least-once pivot: the input's cursor
// must not move on ingest, only on Acknowledge with a covering watermark —
// and then cumulatively, to the newest covered message.
func TestRunnerAckAfterCheckpoint(t *testing.T) {
	in := newStubInput(msg(0, 1000, "a"), msg(1, 2000, "b"), msg(2, 3000, "c"))
	var seq uint64
	ingest := func(author int32, tm int64, text string) (uint64, []int32, error) {
		seq++
		return seq, nil, nil
	}
	r, err := connector.NewRunner("input:stub", in, ingest, connector.RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Run(context.Background()) }()
	defer r.Stop()

	waitFor(t, "3 ingests", func() bool { return r.Stats().Ingested == 3 })
	if got := in.ackSeqs(); len(got) != 0 {
		t.Fatalf("input acked %v before any checkpoint", got)
	}

	// A checkpoint covering watermark 2 acks posts 1-2 via the newest covered
	// message; watermark 10 covers the rest.
	r.Acknowledge(2)
	if got := in.ackSeqs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after Acknowledge(2): acks %v, want [2]", got)
	}
	r.Acknowledge(10)
	if got := in.ackSeqs(); len(got) != 2 || got[1] != 3 {
		t.Fatalf("after Acknowledge(10): acks %v, want [2 3]", got)
	}
	// Re-acknowledging an old watermark is a no-op, not a regression.
	r.Acknowledge(2)
	if got := in.ackSeqs(); len(got) != 2 {
		t.Fatalf("stale Acknowledge re-acked: %v", got)
	}
	st := r.Stats()
	if st.Acked != 3 || st.AckSeq != 10 {
		t.Fatalf("stats acked=%d ackSeq=%d, want 3 and 10", st.Acked, st.AckSeq)
	}
}

// TestRunnerSkipsAckWithPredecessor: a deterministically rejected message
// (disorder, empty text) acks alongside its predecessor — a replay rejects it
// again, so covering the predecessor covers it.
func TestRunnerSkipsAckWithPredecessor(t *testing.T) {
	in := newStubInput(msg(0, 1000, "a"), msg(1, 500, "disordered"), msg(2, 3000, "c"))
	var seq uint64
	ingest := func(author int32, tm int64, text string) (uint64, []int32, error) {
		if text == "disordered" {
			return 0, nil, connector.Rejection(fmt.Errorf("post out of order"))
		}
		seq++
		return seq, nil, nil
	}
	r, err := connector.NewRunner("input:stub", in, ingest, connector.RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Run(context.Background()) }()
	defer r.Stop()

	waitFor(t, "2 ingests + 1 skip", func() bool {
		st := r.Stats()
		return st.Ingested == 2 && st.Skipped == 1
	})
	// Watermark 1 covers post "a" AND the skipped message (its ack seq is its
	// predecessor's); the newest covered pending is the skip itself.
	r.Acknowledge(1)
	if got := in.ackSeqs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after Acknowledge(1): acks %v, want [1]", got)
	}
	if st := r.Stats(); st.Acked != 2 {
		t.Fatalf("stats acked=%d, want 2 (the post and its trailing skip)", st.Acked)
	}
}

// TestRunnerRetriesEngineError: an error not marked ErrRejected (an engine
// failure, a router forward that gave up) retries the same message instead
// of skipping it, so a checkpoint never acks past a post no engine decided.
func TestRunnerRetriesEngineError(t *testing.T) {
	in := newStubInput(msg(0, 1000, "a"))
	var calls int
	var mu sync.Mutex
	ingest := func(author int32, tm int64, text string) (uint64, []int32, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls < 3 {
			return 0, nil, errors.New("shard: giving up on shard 1")
		}
		return 1, nil, nil
	}
	r, err := connector.NewRunner("input:stub", in, ingest, connector.RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Run(context.Background()) }()
	defer r.Stop()

	waitFor(t, "ingest after two failures", func() bool { st := r.Stats(); return st.Ingested == 1 || st.Skipped > 0 })
	mu.Lock()
	defer mu.Unlock()
	if st := r.Stats(); st.Skipped != 0 || st.Ingested != 1 {
		t.Fatalf("an engine failure was counted as a skip: %+v", st)
	}
	if calls != 3 {
		t.Fatalf("ingest called %d times, want 3 (two retries)", calls)
	}
}

// TestRunnerStopDuringPacedGap: a real-time replay (speedup 1) waiting out
// an hour-long gap between two messages must not hold Stop for that hour.
func TestRunnerStopDuringPacedGap(t *testing.T) {
	in := newStubInput(msg(0, 0, "a"), msg(0, time.Hour.Milliseconds(), "b"))
	ingest := func(author int32, tm int64, text string) (uint64, []int32, error) {
		return 1, nil, nil
	}
	pacer, err := connector.NewPacer(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := connector.NewRunner("input:stub", in, ingest, connector.RunnerOptions{Pacer: pacer})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Run(context.Background()) }()
	// The second message is read (and waiting on its due time) once the
	// first is ingested.
	waitFor(t, "both messages read", func() bool { return r.Stats().Read == 2 })
	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop blocked on the paced wait for the next message")
	}
	if st := r.Stats(); st.Ingested != 1 {
		t.Fatalf("ingested %d messages, want 1 (the second was still pending)", st.Ingested)
	}
}

// TestRunnerStopsOnEngineClose: stream.ErrClosed ends the run cleanly.
func TestRunnerStopsOnEngineClose(t *testing.T) {
	in := newStubInput(msg(0, 1000, "a"))
	ingest := func(author int32, tm int64, text string) (uint64, []int32, error) {
		return 0, nil, stream.ErrClosed
	}
	r, err := connector.NewRunner("input:stub", in, ingest, connector.RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on engine close")
	}
}
