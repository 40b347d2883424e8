// Package connectortest is the conformance suite for connector.Input and
// connector.Output implementations: a table of behaviors every plugin must
// share (delivery of fed messages in order, idempotent Close, ErrClosed
// after Close, ack acceptance, and resumption from the acked cursor after a
// re-instantiation). Built-ins run it in the connector
// package's own tests; out-of-tree plugins can import it and run the same
// contract.
package connectortest

import (
	"context"
	"errors"
	"testing"
	"time"

	"firehose/internal/connector"
)

// InputWorld binds the suite to one Input implementation. New builds a fresh
// instance over the same backing store each call: state persisted by Ack
// must be visible to later instances, which is how the suite simulates a
// restart.
type InputWorld interface {
	// New returns an unconnected instance. The suite closes it via t.Cleanup.
	New(t *testing.T) connector.Input
	// Feed makes msgs readable on the connected instance in, in order. It may
	// deliver asynchronously but must preserve order; the suite calls it
	// after Connect.
	Feed(t *testing.T, in connector.Input, msgs []connector.Message)
}

// InputHarness names one Input implementation and its contract flags.
type InputHarness struct {
	Name string
	// Finite inputs return io.EOF once the fed messages are consumed.
	Finite bool
	// Setup builds the world backing every subtest.
	Setup func(t *testing.T) InputWorld
}

// OutputWorld binds the suite to one Output implementation.
type OutputWorld interface {
	// New returns an unconnected instance. The suite closes it via t.Cleanup.
	New(t *testing.T) connector.Output
	// Received reports the deliveries the sink has observed so far. Called in
	// a poll loop: buffered outputs may lag Write.
	Received(t *testing.T) []connector.Delivery
}

// OutputHarness names one Output implementation.
type OutputHarness struct {
	Name  string
	Setup func(t *testing.T) OutputWorld
}

// feedMsgs is the shared conformance workload: time-ordered, distinct posts.
func feedMsgs(n int) []connector.Message {
	msgs := make([]connector.Message, n)
	for i := range msgs {
		msgs[i] = connector.Message{
			Author:     int32(i % 3),
			TimeMillis: int64(1000 * (i + 1)),
			Text:       "conformance post " + string(rune('a'+i)),
		}
	}
	return msgs
}

// newConnected builds and connects an instance, registering cleanup.
func newConnected(t *testing.T, w InputWorld) connector.Input {
	t.Helper()
	in := w.New(t)
	t.Cleanup(func() { _ = in.Close() })
	if err := in.Connect(context.Background()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return in
}

// newConnectedOutput is newConnected for an output.
func newConnectedOutput(t *testing.T, w OutputWorld) connector.Output {
	t.Helper()
	out := w.New(t)
	t.Cleanup(func() { _ = out.Close() })
	if err := out.Connect(context.Background()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return out
}

// readN reads n messages, asserting content and order against want and
// stamping each with the pipeline seq i+1 (the seq an input records on Ack).
func readN(t *testing.T, in connector.Input, want []connector.Message) []*connector.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := make([]*connector.Message, 0, len(want))
	for i, w := range want {
		msg, err := in.Read(ctx)
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if msg.Author != w.Author || msg.TimeMillis != w.TimeMillis || msg.Text != w.Text {
			t.Fatalf("Read %d: got {%d %d %q}, want {%d %d %q}",
				i, msg.Author, msg.TimeMillis, msg.Text, w.Author, w.TimeMillis, w.Text)
		}
		msg.Seq = uint64(i + 1)
		out = append(out, msg)
	}
	return out
}

// RunInput runs the Input conformance suite against one harness.
func RunInput(t *testing.T, h InputHarness) {
	t.Run("ReadDeliversFeed", func(t *testing.T) {
		w := h.Setup(t)
		in := newConnected(t, w)
		want := feedMsgs(4)
		w.Feed(t, in, want)
		readN(t, in, want)
		if h.Finite {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := in.Read(ctx); !connector.IsEOF(err) {
				t.Fatalf("Read past the feed: %v, want io.EOF", err)
			}
		}
	})

	t.Run("ConnectTwice", func(t *testing.T) {
		in := newConnected(t, h.Setup(t))
		if err := in.Connect(context.Background()); err != nil {
			t.Fatalf("second Connect: %v", err)
		}
	})

	t.Run("CloseIdempotent", func(t *testing.T) {
		in := newConnected(t, h.Setup(t))
		if err := in.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := in.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})

	t.Run("ReadAfterClose", func(t *testing.T) {
		in := newConnected(t, h.Setup(t))
		if err := in.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := in.Read(context.Background()); !errors.Is(err, connector.ErrClosed) {
			t.Fatalf("Read after Close: %v, want ErrClosed", err)
		}
	})

	t.Run("ReadHonorsContext", func(t *testing.T) {
		in := newConnected(t, h.Setup(t))
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if h.Finite {
			// A finite empty source may report io.EOF before the deadline.
			if _, err := in.Read(ctx); !connector.IsEOF(err) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Read on empty source: %v, want io.EOF or deadline", err)
			}
			return
		}
		if _, err := in.Read(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Read on empty source: %v, want context deadline", err)
		}
	})

	t.Run("AckAccepted", func(t *testing.T) {
		w := h.Setup(t)
		in := newConnected(t, w)
		want := feedMsgs(2)
		w.Feed(t, in, want)
		msgs := readN(t, in, want)
		for i, m := range msgs {
			if err := in.Ack(m); err != nil {
				t.Fatalf("Ack %d: %v", i, err)
			}
		}
	})

	// Every input persists the acked cursor across instances.
	t.Run("ReplayFromWatermark", func(t *testing.T) {
		w := h.Setup(t)
		in1 := newConnected(t, w)
		want := feedMsgs(5)
		w.Feed(t, in1, want)
		msgs := readN(t, in1, want)
		// A checkpoint covered seq 3: ack it, crash (Close), restart.
		if err := in1.Ack(msgs[2]); err != nil {
			t.Fatalf("Ack: %v", err)
		}
		if err := in1.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		in2 := newConnected(t, w)
		readN(t, in2, want[3:])
	})
}

// RunOutput runs the Output conformance suite against one harness.
func RunOutput(t *testing.T, h OutputHarness) {
	deliveries := []connector.Delivery{
		{ID: 1, Author: 0, TimeMillis: 1000, Text: "first", Users: []int32{1, 2}},
		{ID: 2, Author: 1, TimeMillis: 2000, Text: "second", Users: []int32{0}},
		{ID: 3, Author: 2, TimeMillis: 3000, Text: "third", Users: nil},
	}

	t.Run("WritesArrive", func(t *testing.T) {
		w := h.Setup(t)
		out := newConnectedOutput(t, w)
		ctx := context.Background()
		for i, d := range deliveries {
			if err := out.Write(ctx, d); err != nil {
				t.Fatalf("Write %d: %v", i, err)
			}
		}
		// Close bounds the flush, so after it every buffered delivery has had
		// its transmit attempt.
		if err := out.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			got := w.Received(t)
			if len(got) >= len(deliveries) {
				seen := make(map[uint64]connector.Delivery, len(got))
				for _, d := range got {
					seen[d.ID] = d
				}
				for _, want := range deliveries {
					d, ok := seen[want.ID]
					if !ok {
						t.Fatalf("delivery %d never arrived (got %v)", want.ID, got)
					}
					if d.Author != want.Author || d.TimeMillis != want.TimeMillis || d.Text != want.Text {
						t.Fatalf("delivery %d: got %+v, want %+v", want.ID, d, want)
					}
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("sink saw %d deliveries, want %d", len(got), len(deliveries))
			}
			time.Sleep(10 * time.Millisecond)
		}
	})

	t.Run("ConnectTwice", func(t *testing.T) {
		out := newConnectedOutput(t, h.Setup(t))
		if err := out.Connect(context.Background()); err != nil {
			t.Fatalf("second Connect: %v", err)
		}
	})

	t.Run("CloseIdempotent", func(t *testing.T) {
		out := newConnectedOutput(t, h.Setup(t))
		if err := out.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := out.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})

	t.Run("WriteAfterClose", func(t *testing.T) {
		out := newConnectedOutput(t, h.Setup(t))
		if err := out.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := out.Write(context.Background(), deliveries[0]); !errors.Is(err, connector.ErrClosed) {
			t.Fatalf("Write after Close: %v, want ErrClosed", err)
		}
	})
}
