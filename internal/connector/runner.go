package connector

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"firehose/internal/stream"
)

// IngestFunc pushes one post into the engine and reports the assigned
// sequence number (the post id) and the users whose timelines received it.
// Failures split three ways for the runner: stream.ErrClosed ends the run,
// an error marked ErrRejected is a deterministic rejection (disorder, empty
// text) that a replay reproduces — the message is skipped and acked with its
// predecessor — and anything else (a router forward that gave up, an engine
// failure) is retried with the same message, so no post is acked that no
// engine decided.
type IngestFunc func(author int32, timeMillis int64, text string) (seq uint64, users []int32, err error)

// ErrRejected marks an ingest error that a replay of the same input
// reproduces. Producers mark their rejections with Rejection.
var ErrRejected = errors.New("connector: deterministic rejection")

// Rejection marks err as a deterministic rejection: errors.Is(…, ErrRejected)
// holds, and the text and the chain below are err's.
func Rejection(err error) error { return rejection{err} }

type rejection struct{ error }

func (r rejection) Unwrap() error      { return r.error }
func (rejection) Is(target error) bool { return target == ErrRejected }

// Runner drives one Input through an IngestFunc and turns durable checkpoint
// watermarks into input acks. It is the at-least-once pivot: messages the
// engine ingested stay pending until Acknowledge proves a checkpoint covers
// their sequence number, and only then does the input's resume cursor move.
type Runner struct {
	component string
	input     Input
	ingest    IngestFunc
	pacer     *Pacer

	// mu guards: pending, lastSeq, ackSeq, stopped
	mu      sync.Mutex
	pending []pendingMsg
	lastSeq uint64
	ackSeq  uint64
	stopped bool

	stopCh chan struct{}
	doneCh chan struct{}

	read     atomicCounter
	ingested atomicCounter
	skipped  atomicCounter
	acked    atomicCounter
	ackErrs  atomicCounter
}

// pendingMsg is a read message awaiting checkpoint coverage. seq is the
// sequence number it acks at: its own for ingested messages, its
// predecessor's for deterministic skips (a replay skips them again, so
// covering the predecessor covers them).
type pendingMsg struct {
	seq uint64
	msg *Message
}

// RunnerOptions configures a Runner.
type RunnerOptions struct {
	// Pacer, when non-nil, paces Read-ed messages by their timestamps
	// (recorded-speed or compressed replay). Nil ingests as fast as the
	// engine accepts.
	Pacer *Pacer
}

// retryBackoff is the wait before retrying a failed ingest.
const retryBackoff = 5 * time.Millisecond

// NewRunner builds a runner for one input. component names it in stats
// ("input:file", …).
func NewRunner(component string, in Input, ingest IngestFunc, opts RunnerOptions) (*Runner, error) {
	if in == nil || ingest == nil {
		return nil, fmt.Errorf("connector: runner needs an input and an ingest func")
	}
	return &Runner{
		component: component,
		input:     in,
		ingest:    ingest,
		pacer:     opts.Pacer,
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}, nil
}

// Run reads the input to exhaustion (io.EOF), Stop, or engine close,
// ingesting each message in order. It returns nil on a clean end and the
// first unexpected error otherwise.
func (r *Runner) Run(ctx context.Context) error {
	defer close(r.doneCh)
	for {
		msg, err := r.input.Read(ctx)
		if err != nil {
			switch {
			case IsEOF(err), errors.Is(err, ErrClosed):
				return nil
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				return nil
			default:
				return err
			}
		}
		r.read.inc()
		if r.pacer != nil && !r.pacer.Wait(msg.TimeMillis, r.stopCh) {
			return nil // Stop closed stopCh mid-wait
		}
		if stop := r.ingestOne(msg); stop {
			return nil
		}
	}
}

// ingestOne pushes one message through the engine, retrying every failure
// but a deterministic rejection; it reports whether the run should stop
// (engine closed or Stop).
func (r *Runner) ingestOne(msg *Message) (stop bool) {
	for {
		seq, _, err := r.ingest(msg.Author, msg.TimeMillis, msg.Text)
		switch {
		case err == nil:
			msg.Seq = seq
			r.ingested.inc()
			r.mu.Lock()
			r.lastSeq = seq
			r.pending = append(r.pending, pendingMsg{seq: seq, msg: msg})
			r.mu.Unlock()
			return false
		case errors.Is(err, stream.ErrClosed):
			return true
		case errors.Is(err, ErrRejected):
			// A replay rejects it again, so it is safe to ack alongside its
			// predecessor.
			r.skipped.inc()
			r.mu.Lock()
			r.pending = append(r.pending, pendingMsg{seq: r.lastSeq, msg: msg})
			r.mu.Unlock()
			return false
		}
		select {
		case <-time.After(retryBackoff):
		case <-r.stopCh:
			return true
		}
	}
}

// Acknowledge advances the input's cursor to the newest pending message whose
// ack sequence is covered by the durable watermark w (a checkpointed post
// id). The checkpoint manager's post-write hook calls it after every durable
// checkpoint.
func (r *Runner) Acknowledge(w uint64) {
	r.mu.Lock()
	idx := -1
	for i, p := range r.pending {
		if p.seq > w {
			break
		}
		idx = i
	}
	if idx < 0 {
		r.mu.Unlock()
		return
	}
	last := r.pending[idx]
	covered := idx + 1
	rest := r.pending[covered:]
	r.pending = append([]pendingMsg(nil), rest...)
	if w > r.ackSeq {
		r.ackSeq = w
	}
	r.mu.Unlock()

	// Ack is cumulative: acking the newest covered message covers the rest.
	// The message carries its effective ack seq (its predecessor's for a
	// skipped message) so durable inputs can record the (seq, offset) pair.
	last.msg.Seq = last.seq
	if err := r.input.Ack(last.msg); err != nil && !errors.Is(err, ErrClosed) {
		r.ackErrs.inc()
		return
	}
	r.acked.add(uint64(covered))
}

// Stop closes the input (unblocking Read) and waits for Run to return.
// Idempotent.
func (r *Runner) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		<-r.doneCh
		return
	}
	r.stopped = true
	r.mu.Unlock()
	close(r.stopCh)
	_ = r.input.Close()
	<-r.doneCh
}

// Done reports when Run has returned.
func (r *Runner) Done() <-chan struct{} { return r.doneCh }

// Stats reports the runner's counters for its input component.
func (r *Runner) Stats() Stat {
	r.mu.Lock()
	ackSeq := r.ackSeq
	r.mu.Unlock()
	return Stat{
		Component: r.component,
		Read:      r.read.get(),
		Ingested:  r.ingested.get(),
		Skipped:   r.skipped.get(),
		Acked:     r.acked.get(),
		AckSeq:    ackSeq,
		Errors:    r.ackErrs.get(),
	}
}
