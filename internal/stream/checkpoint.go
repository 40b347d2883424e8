package stream

// Checkpointing for the stream engine. It delegates algorithm state to core's
// StateSnapshotter implementations and adds its own layer: the sequence
// watermarks and the queue-wait histograms. Every shape — inline, one worker,
// many — writes the same "parallelengine" section. Timelines are deliberately
// not checkpointed — they are a rebuildable view of delivered posts,
// unbounded in size, and the durable thing is the decision state that
// determines which future posts get delivered.
//
// The engine cannot snapshot mid-flight: workers mutate their shard solvers
// concurrently. quiesce establishes a consistent cut — intake stopped, every
// accepted job decided — and holds it while the caller walks the workers; see
// its comment for the protocol and the memory-ordering argument.

import (
	"fmt"

	"firehose/internal/checkpoint"
	"firehose/internal/core"
)

// shardSnapshotters asserts every worker's solver supports checkpointing,
// refusing descriptively otherwise (adaptive-wrapped shards deliberately do
// not — see core.AdaptiveMultiUser).
func (e *ParallelMultiEngine) shardSnapshotters() ([]core.StateSnapshotter, error) {
	out := make([]core.StateSnapshotter, len(e.workers))
	for i, w := range e.workers {
		w.mu.Lock()
		s, ok := w.md.(core.StateSnapshotter)
		name := w.md.Name()
		w.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("stream: solver %s does not support checkpointing", name)
		}
		out[i] = s
	}
	return out, nil
}

// quiesce brings the engine to a consistent cut and returns a
// release function that resumes ingestion. The protocol:
//
//  1. Take e.mu. New Offers/OfferBatches block at the ingest boundary; no
//     further jobs can be enqueued. The inline engine decides under e.mu, so
//     for it this step alone is the cut.
//  2. Send each worker a barrier job. The sends can block if a queue is full
//     but always terminate, for the same reason Offer's blocking mode does:
//     workers never take e.mu, so they keep draining.
//  3. Wait for every barrier to close. Queues are FIFO, so a closed barrier
//     proves that worker has decided every job accepted before the cut, and
//     the close is the happens-before edge publishing the worker's own
//     writes (lastSeq, solver state) to the quiescing goroutine.
//
// When quiesce returns, every ticket issued before the cut is resolved,
// worker queues are empty, and workers are parked on an empty channel. The
// caller reads or writes worker state — taking each worker's mu is still
// required for fields snapshotted concurrently by Counters/WorkerSnapshots —
// and then calls release, which drops e.mu and lets producers continue.
func (e *ParallelMultiEngine) quiesce() (release func(), err error) {
	e.mu.Lock()
	if e.state != stateOpen {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if !e.inline {
		barriers := make([]chan struct{}, len(e.workers))
		for i, w := range e.workers {
			barriers[i] = make(chan struct{})
			w.ch <- parallelJob{barrier: barriers[i]}
		}
		for _, b := range barriers {
			<-b
		}
	}
	//lint:ignore lockorder quiesce transfers e.mu ownership to the caller via the returned release func; SnapshotState defers it
	return e.mu.Unlock, nil
}

// SnapshotState quiesces the engine and writes a consistent cut: the global
// sequence watermark, then each worker's shard in index order (sequence
// watermark, queue-wait histogram, shard solver state). Ingestion resumes
// when SnapshotState returns; tickets issued before the call are all
// resolved at the cut, so the snapshot is exactly "everything offered so
// far".
func (e *ParallelMultiEngine) SnapshotState(enc *checkpoint.Encoder) error {
	release, err := e.quiesce()
	if err != nil {
		return err
	}
	defer release()
	// Asserted at the cut, so a concurrent Swap cannot replace a solver
	// between the check and its use.
	snaps, err := e.shardSnapshotters()
	if err != nil {
		return err
	}
	enc.String("parallelengine")
	enc.Uvarint(uint64(len(e.workers)))
	//lint:ignore guardcheck quiesce() returns with e.mu held; release() is the deferred unlock
	enc.Uvarint(e.seq)
	for wi, w := range e.workers {
		w.mu.Lock()
		enc.Uvarint(w.lastSeq)
		core.EncodeHistogram(enc, &w.queueWait)
		err := snaps[wi].SnapshotState(enc)
		w.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return enc.Err()
}

// RestoreState replaces the engine's decision state from a snapshot. The
// engine must be freshly constructed with the same shape (algorithm, graph,
// subscriptions, worker count) — the shard count is validated here, shard
// contents by the solvers underneath. Each worker's timelines restart empty
// under the quiesce. On error the engine must be discarded.
func (e *ParallelMultiEngine) RestoreState(dec *checkpoint.Decoder) error {
	release, err := e.quiesce()
	if err != nil {
		return err
	}
	defer release()
	snaps, err := e.shardSnapshotters()
	if err != nil {
		return err
	}
	dec.Expect("parallelengine")
	if n := dec.Len("workers", checkpoint.MaxElems); dec.Err() == nil && n != len(e.workers) {
		dec.Failf("snapshot has %d worker shards, engine has %d", n, len(e.workers))
	}
	seq := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	for wi, w := range e.workers {
		lastSeq := dec.Uvarint()
		wait := core.DecodeHistogram(dec)
		if dec.Err() == nil && lastSeq > seq {
			dec.Failf("worker %d watermark %d exceeds global sequence %d", wi, lastSeq, seq)
		}
		if err := dec.Err(); err != nil {
			return err
		}
		w.mu.Lock()
		err := snaps[wi].RestoreState(dec)
		if err == nil {
			w.queueWait = wait
			w.timelines.Reset()
		}
		w.mu.Unlock()
		if err != nil {
			return err
		}
		// lastSeq is worker-owned; writing here is safe because the worker is
		// parked on its empty queue (quiesce) and the next channel send
		// publishes the write to it.
		w.lastSeq = lastSeq
	}
	//lint:ignore guardcheck quiesce() returns with e.mu held; release() is the deferred unlock
	e.seq = seq
	return dec.Err()
}
