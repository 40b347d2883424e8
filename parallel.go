package firehose

import (
	"fmt"
	"runtime"

	"firehose/internal/core"
	"firehose/internal/stream"
)

// Typed errors of the parallel service, re-exported for errors.Is checks.
var (
	// ErrClosed is returned by ParallelService.Offer after Close has begun.
	ErrClosed = stream.ErrClosed
	// ErrQueueFull is returned by ParallelService.Offer in fail-fast mode
	// when the target worker's queue is at capacity; the post was not
	// enqueued.
	ErrQueueFull = stream.ErrQueueFull
)

// ParallelServiceOptions configures NewParallel.
type ParallelServiceOptions struct {
	// Algorithm is the per-component SPSD algorithm. The zero value is
	// UniBin.
	Algorithm Algorithm
	// Config holds the service-wide thresholds. Required; there is no
	// implicit default — use DefaultConfig() explicitly for the paper's
	// thresholds.
	Config Config
	// Workers is the shard count; 0 selects runtime.NumCPU().
	Workers int
	// QueueDepth bounds each worker's pending-post queue; 0 selects the
	// engine default (256). A full queue blocks Offer — backpressure — or
	// fails it fast, per FailFast.
	QueueDepth int
	// FailFast makes Offer return ErrQueueFull instead of blocking when the
	// target worker's queue is full, for ingestion tiers that prefer
	// shedding or retrying over stalling.
	FailFast bool
	// Adaptive, when non-nil, layers the per-user delivery-rate controller
	// over every worker shard; see AdaptiveConfig. Budgets are accounted per
	// shard: a user whose subscriptions span k shards can receive up to k×
	// BudgetPosts per window, because each shard's controller sees only the
	// deliveries it decides (users inside a single connected component always
	// land on one shard, so the bound is exact for them). Adaptive services
	// do not support checkpointing.
	Adaptive *AdaptiveConfig
	// Topology, when non-nil, stamps the service's place in a horizontally
	// sharded deployment into its snapshot fingerprint; see Topology. Nil is
	// the single-node deployment. (Workers above is goroutine-level
	// parallelism inside one process; Topology is the process-level split.)
	Topology *Topology
}

// ParallelService is a multi-goroutine M-SPSD engine. It exploits the
// independence the paper's Section 5 establishes: posts from different
// connected components of the author similarity graph can never cover each
// other, so components shard cleanly across workers — per-component decision
// order is preserved while disjoint shards run concurrently. Per-user
// timelines are identical to MultiUserService's (property-tested).
//
// Concurrency contract: Offer, Close and Stats are safe to call from any
// number of goroutines. The ingest boundary serializes routing and assigns
// each post a monotone sequence number (Delivery.Seq), which defines the
// stream order; concurrent producers must ensure post timestamps are
// non-decreasing in that order (e.g. by timestamping at ingestion).
// Decisions complete asynchronously and are joined through the returned
// Delivery. Close drains every in-flight decision before returning; Offers
// racing a Close return ErrClosed.
type ParallelService struct {
	inner *stream.ParallelMultiEngine
	meta  snapMeta
}

// Delivery is a pending decision; Users blocks until it resolves.
type Delivery struct{ t *stream.Ticket }

// Users returns the ids of the users whose timeline received the post.
func (d Delivery) Users() []UserID { return d.t.Users() }

// Seq returns the monotone ingest sequence number assigned to the post —
// the service's global arrival order across all workers.
func (d Delivery) Seq() uint64 { return d.t.Seq() }

// NewParallel builds the sharded service. subscriptions[u] lists the authors
// user u follows.
func NewParallel(g *AuthorGraph, subscriptions [][]AuthorID, opts ParallelServiceOptions) (*ParallelService, error) {
	if err := checkConfig(opts.Config, g); err != nil {
		return nil, err
	}
	for u, subs := range subscriptions {
		if err := checkAuthors(subs, g.NumAuthors()); err != nil {
			return nil, wrapUserErr(u, err)
		}
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	var pol *core.AdaptivePolicy
	if opts.Adaptive != nil {
		p, err := opts.Adaptive.policy(opts.Config.thresholds())
		if err != nil {
			return nil, err
		}
		pol = &p
	}
	inner, err := stream.NewParallelMultiEngineOpts(opts.Algorithm, g.g, int32Slices(subscriptions), opts.Config.thresholds(), workers,
		stream.ParallelOptions{QueueDepth: opts.QueueDepth, FailFast: opts.FailFast, Adaptive: pol})
	if err != nil {
		return nil, err
	}
	meta := metaFor(inner.Name(), g, subscriptions, []Config{opts.Config})
	meta.workers = workers
	if err := meta.applyTopology(opts.Topology); err != nil {
		return nil, err
	}
	return &ParallelService{inner: inner, meta: meta}, nil
}

// Offer enqueues a post for its component's worker and returns immediately.
// Safe for concurrent producers. In fail-fast mode a full worker queue
// returns ErrQueueFull (the post is dropped, not enqueued); otherwise a full
// queue blocks until the worker drains. After Close it returns ErrClosed.
func (s *ParallelService) Offer(p Post) (Delivery, error) {
	t, err := s.inner.Offer(core.NewPost(p.ID, p.Author, p.Time.UnixMilli(), p.Text))
	return Delivery{t: t}, err
}

// BatchDelivery is the pending decision handle of OfferBatch: one handle for
// the whole batch, resolving each post's delivery in batch order.
type BatchDelivery struct{ t *stream.BatchTicket }

// Users blocks until every post in the batch is decided and returns the
// per-post delivered user ids, indexed in batch order. The returned slices
// are the caller's to keep.
func (d BatchDelivery) Users() [][]UserID {
	rows := d.t.Users()
	out := make([][]UserID, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// SeqBase returns the sequence number assigned to the batch's first post;
// post i in the batch holds sequence SeqBase()+i.
func (d BatchDelivery) SeqBase() uint64 { return d.t.SeqBase() }

// Len returns the number of posts in the batch.
func (d BatchDelivery) Len() int { return d.t.Len() }

// OfferBatch ingests a time-ordered slice of posts as one unit, amortizing
// the routing lock and per-worker channel sends across the batch. Posts must
// be non-decreasing in time and ordered after everything previously offered;
// the batch occupies sequence numbers SeqBase()..SeqBase()+len(posts)-1 in
// stream order. Per-user timelines are identical to offering the posts one by
// one. Unlike Offer, OfferBatch always applies blocking backpressure — even
// on a FailFast service — because shedding part of a batch would silently
// break the caller's ordering guarantee. After Close it returns ErrClosed.
func (s *ParallelService) OfferBatch(posts []Post) (BatchDelivery, error) {
	cps := make([]*core.Post, len(posts))
	for i, p := range posts {
		cps[i] = core.NewPost(p.ID, p.Author, p.Time.UnixMilli(), p.Text)
	}
	t, err := s.inner.OfferBatch(cps)
	return BatchDelivery{t: t}, err
}

// Close drains all workers and resolves every outstanding Delivery; call
// before reading final Stats. Idempotent and safe to call concurrently with
// Offer — racing Offers fail with ErrClosed rather than being half-accepted.
func (s *ParallelService) Close() { s.inner.Close() }

// Workers returns the shard count.
func (s *ParallelService) Workers() int { return s.inner.NumWorkers() }

// QueueDepth returns the per-worker queue bound.
func (s *ParallelService) QueueDepth() int { return s.inner.QueueDepth() }

// Stats merges the cost counters across workers. Safe at any time from any
// goroutine; the snapshot is taken worker by worker under each worker's
// decision lock, so it never races a decision (call after Close for exact
// final totals).
func (s *ParallelService) Stats() Stats {
	c := s.inner.Counters()
	return statsOf(&c)
}

// WorkerStats is the per-worker slice of the service's instrumentation —
// queue pressure and decision cost of one shard. Comparing QueueWait and
// Stats across workers makes component-hashing imbalance visible.
type WorkerStats struct {
	// Worker is the shard index, 0..Workers()-1.
	Worker int
	// QueueDepth is the number of posts waiting in this worker's queue at
	// snapshot time; QueueCapacity is its bound.
	QueueDepth, QueueCapacity int
	// QueueWait summarizes how long posts sat queued before their decision.
	QueueWait LatencySummary
	// Stats are this worker's cost counters; summing them across workers
	// gives Stats().
	Stats Stats
}

// WorkerStats snapshots every worker's queue state and counters, in worker
// order. Safe at any time from any goroutine; each worker is snapshotted
// under its own decision lock.
func (s *ParallelService) WorkerStats() []WorkerStats {
	snaps := s.inner.WorkerSnapshots()
	out := make([]WorkerStats, len(snaps))
	for i, ws := range snaps {
		out[i] = WorkerStats{
			Worker:        ws.Worker,
			QueueDepth:    ws.QueueLen,
			QueueCapacity: ws.QueueCap,
			QueueWait:     latencySummaryOf(ws.QueueWait),
			Stats:         statsOf(&ws.Counters),
		}
	}
	return out
}

// AdaptiveStates merges the per-shard controller states into one per-user
// view, sorted by user id, or nil when the service was built without
// ParallelServiceOptions.Adaptive. For a user spanning several shards the
// entry reports the tightest effective thresholds across shards and the
// summed delivered/suppressed counts. Safe at any time from any goroutine;
// shards are snapshotted one at a time under their decision locks, so call
// after Close for exact final values.
func (s *ParallelService) AdaptiveStates() []AdaptiveUserState {
	return publicAdaptiveStates(s.inner.AdaptiveStates())
}

// Suppressed returns the total number of deliveries the adaptive controllers
// withheld across all shards; 0 for a non-adaptive service.
func (s *ParallelService) Suppressed() uint64 { return s.inner.Suppressed() }

func wrapUserErr(u int, err error) error {
	return fmt.Errorf("user %d: %w", u, err)
}
