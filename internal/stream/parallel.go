package stream

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/metrics"
)

// ErrClosed is returned by Offer once Close has begun; the engine accepts no
// further posts but still resolves every ticket it issued.
var ErrClosed = errors.New("stream: engine is closed")

// ParallelOptions configures a ParallelMultiEngine.
type ParallelOptions struct {
	// Adaptive, when non-nil, wraps every shard's solver in the per-user
	// delivery-rate controller (core.AdaptiveMultiUser). Budgets are
	// accounted per shard: a user whose subscriptions span k shards can
	// receive up to k× the configured budget per window, because each
	// shard's controller sees only the deliveries it decides. That bound is
	// exact for users inside one component (every component lives on one
	// worker) and conservative otherwise. Adaptive engines do not support
	// checkpointing.
	Adaptive *core.AdaptivePolicy
}

// DefaultQueueDepth bounds each worker's pending-job queue. A full queue
// blocks the producer — backpressure — so ingestion slows to the rate the
// slowest worker sustains and no accepted post is ever shed.
const DefaultQueueDepth = 256

// ParallelMultiEngine runs M-SPSD across worker goroutines by exploiting the
// independence the paper's Section 5 analysis establishes: posts from
// different connected components of the author similarity graph can never
// cover each other, so each component's decision sequence is independent of
// every other's. The engine shards the *global* graph's components across
// workers; each worker owns a SharedMultiUser instance over the users'
// subscriptions restricted to its shard, preserving per-component arrival
// order (each author maps to exactly one worker) while processing disjoint
// shards concurrently.
//
// Offer returns a ticket immediately; the ticket's Users method joins the
// decision. For every user, the union of deliveries equals the sequential
// SharedMultiUser's — property-tested against it.
//
// Each worker keeps the delivered history of the posts it decides. A worker
// answers first — it resolves the ticket as soon as the decision is made —
// and then appends to the history, still holding the lock every timeline
// read and checkpoint takes, so a read that starts after a ticket resolves
// sees its posts. Timeline merges the workers' histories by sequence number,
// so per-user timelines equal a sequential run's.
//
// Sequential is the one-shard case of the same design, not a second engine:
// NewMultiEngine builds the inline mode, one worker over a caller-supplied
// solver with no goroutine and no queue, whose decisions run on the caller's
// goroutine under the ingest lock through the same worker code (decide,
// runBatch) the goroutine loop runs. Checkpoints, timelines, counters and
// Swap are shared by every shape.
//
// The same component-independence argument is applied at process scale by
// internal/shard: a router partitions components across worker *processes*
// the way this engine partitions them across goroutines, and the
// bit-identical-decisions guarantee carries over unchanged. The two splits
// compose — each shard process may itself run a ParallelMultiEngine.
//
// Concurrency contract: Offer, Close and Counters are safe to call from any
// number of goroutines. The ingest boundary serializes routing and tags every
// accepted post with a monotone sequence number, so concurrent producers get
// a well-defined global order and per-component order is preserved; the
// semantic stream order is the sequence order, which means concurrent
// producers must still ensure their posts carry non-decreasing timestamps in
// that order (e.g. by timestamping at the ingest boundary). Close drains all
// in-flight tickets before returning; Offers that lose the race against Close
// return ErrClosed and enqueue nothing.
type ParallelMultiEngine struct {
	workers []*parallelWorker
	// authorWorker maps author id → worker index; nil in inline mode.
	authorWorker []int32
	// inline marks the one-shard engine NewMultiEngine builds: its worker has
	// no goroutine and no queue, and every post is decided on the offering
	// goroutine while it holds mu.
	inline bool
	wg     sync.WaitGroup

	// mu guards: state, seq
	//
	// It also serializes the route-and-enqueue step of Offer so the
	// per-worker queues receive jobs in sequence order even under concurrent
	// producers; in inline mode it serializes the decisions themselves.
	mu    sync.Mutex
	state lifecycle
	seq   uint64
}

// lifecycle is the engine's state machine: open → closing → closed.
type lifecycle int

const (
	stateOpen lifecycle = iota
	// stateClosing: Close has begun; queues are closed and workers are
	// draining the jobs already accepted. Offer returns ErrClosed.
	stateClosing
	// stateClosed: every worker has exited and every ticket is resolved.
	stateClosed
)

type parallelWorker struct {
	// mu guards: md, queueWait, timelines, discard
	//
	// The worker goroutine holds it across Offer (which mutates the
	// per-component counters deep inside the bins), the ticket's resolution
	// and the timeline append that follows it, and Counters/WorkerSnapshots/
	// Timeline hold it while merging, so readers never race decisions and
	// never miss a resolved ticket's posts. ch is written by the ingest
	// boundary and closed by Close (nil in inline mode); lastSeq, delivered
	// and offs are owned by the worker goroutine alone, or in inline mode by
	// whoever holds the engine's mu.
	mu sync.Mutex
	// md is the shard solver: a SharedMultiUser over the shard's components,
	// optionally wrapped by the adaptive controller. Interface-typed so the
	// wrapping is invisible to the decision loop; checkpointing asserts
	// core.StateSnapshotter and refuses solvers that lack it.
	md core.MultiDiversifier
	// timelines is the delivered history of the posts this worker decides,
	// appended in the decision loop and tagged with each post's ingest
	// sequence number; ParallelMultiEngine.Timeline merges the workers' stores
	// by it. discard turns the appends off (see DiscardTimelines).
	timelines Timelines
	discard   bool
	ch        chan parallelJob
	lastSeq   uint64
	// delivered and offs are the worker's reusable record of a batch's
	// decisions: batch post i was delivered to delivered[offs[i]:offs[i+1]].
	// The timeline append reads them after the ticket resolves, so it never
	// reads the copies handed to the caller, which the caller may write to.
	delivered []int32
	offs      []int32
	// queueWait observes, per job, the time between enqueue at the ingest
	// boundary and dequeue by the worker — the per-worker imbalance signal:
	// a hot shard's queue wait grows while its siblings stay flat.
	queueWait metrics.Histogram
}

// parallelJob is one unit on a worker queue: a single post with its ticket,
// one shard of a batch, or a quiesce barrier (exactly one of ticket/batch/
// barrier is non-nil).
type parallelJob struct {
	post   *core.Post
	ticket *Ticket
	batch  *batchShardJob
	// barrier, when non-nil, is closed by the worker as soon as it dequeues
	// the job. Because the queue is FIFO, the close proves every job enqueued
	// before the barrier has been fully decided, and the close itself is the
	// happens-before edge that lets the quiescing goroutine read worker-owned
	// fields (lastSeq) written by those jobs. See quiesce.
	barrier chan struct{}
	// enqueuedAt is stamped at the ingest boundary; the worker's dequeue
	// time minus this is the job's queue wait. A batch shard counts as one
	// observation — the wait is a property of the queue slot, not the posts.
	enqueuedAt time.Time
}

// batchShardJob is the slice of one OfferBatch call routed to one worker:
// the shard's posts in batch order, their positions in the batch, and the
// ticket slot array to resolve into.
type batchShardJob struct {
	posts []*core.Post
	pos   []int32 // posts[i] is batch element pos[i]
	// firstSeq/lastSeq are the ingest sequence numbers of posts[0] and
	// posts[len-1]; per-shard sequences are monotone because OfferBatch
	// assigns sequences in batch order and sub-batches preserve it.
	firstSeq, lastSeq uint64
	ticket            *BatchTicket
	done              chan struct{}
}

// WorkerSnapshot is a consistent view of one worker's instrumentation, for
// spotting per-shard imbalance (Gao et al. observe that per-worker load skew
// is the first thing a parallel stream clusterer must expose).
type WorkerSnapshot struct {
	// Worker is the shard index.
	Worker int
	// QueueLen and QueueCap are the pending-job count and queue bound at
	// snapshot time.
	QueueLen, QueueCap int
	// QueueWait is the distribution of enqueue→dequeue waits on this shard.
	QueueWait metrics.Histogram
	// Counters is this worker's cost-counter snapshot (accept/reject split,
	// comparisons, decision latency), taken under the worker's decision
	// lock.
	Counters metrics.Counters
}

// Ticket is a pending decision handle.
type Ticket struct {
	seq   uint64
	done  chan struct{}
	users []int32
}

// Users blocks until the decision is made and returns the delivered users.
// The slice is the caller's to keep and to modify. The worker records the
// post in its timelines just after resolving the ticket, under the lock
// every read takes, so a timeline read or checkpoint that starts after
// Users returns includes the post.
func (t *Ticket) Users() []int32 {
	<-t.done
	return t.users
}

// Seq returns the monotone sequence number the ingest boundary assigned to
// this post — the engine's global arrival order, shared across all workers.
func (t *Ticket) Seq() uint64 { return t.seq }

// resolved is the done channel of every ticket decided before Offer returns
// (unknown authors, and every post of an inline engine), so such tickets
// allocate no channel of their own.
var resolved = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// BatchTicket is the pending decision handle of OfferBatch: one ticket for
// the whole batch, resolved shard by shard as workers finish their slices.
type BatchTicket struct {
	seqBase uint64
	// users[i] is batch post i's delivery list; nil for undelivered posts
	// and for posts whose author is outside the graph. Workers write
	// disjoint indices and the pending channels publish the writes.
	users   [][]int32
	pending []chan struct{}
}

// Users blocks until every post of the batch is decided and returns the
// per-post delivered users, indexed by batch position. The returned slices
// are the caller's to keep and to modify: each worker records its shard in
// its timelines after resolving it, from its own copy of the deliveries and
// under the lock every read takes, so a timeline read or checkpoint that
// starts after Users returns includes the whole batch. Safe to call from
// multiple goroutines.
func (bt *BatchTicket) Users() [][]int32 {
	for _, ch := range bt.pending {
		<-ch
	}
	return bt.users
}

// SeqBase returns the ingest sequence number of the batch's first post;
// post i of the batch has sequence SeqBase()+i. A batch ingested after a
// single Offer (or another batch) has a strictly larger SeqBase.
func (bt *BatchTicket) SeqBase() uint64 { return bt.seqBase }

// Len returns the number of posts in the batch.
func (bt *BatchTicket) Len() int { return len(bt.users) }

// NewParallelMultiEngine shards the components of g across `workers`
// goroutines with default options. See NewParallelMultiEngineOpts.
func NewParallelMultiEngine(alg core.Algorithm, g *authorsim.Graph, subscriptions [][]int32, th core.Thresholds, workers int) (*ParallelMultiEngine, error) {
	return NewParallelMultiEngineOpts(alg, g, subscriptions, th, workers, ParallelOptions{})
}

// NewParallelMultiEngineOpts shards the components of g across `workers`
// goroutines and builds one shared multi-user solver per shard. Components
// are assigned round-robin by their smallest author, balancing load for
// homogeneous communities. subscriptions[u] lists user u's authors.
func NewParallelMultiEngineOpts(alg core.Algorithm, g *authorsim.Graph, subscriptions [][]int32, th core.Thresholds, workers int, opts ParallelOptions) (*ParallelMultiEngine, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("stream: workers must be positive, got %d", workers)
	}
	// Global components partition the author universe; a user's own
	// components are always subsets of global ones, so any two authors that
	// can ever share a decision land in the same global component — and
	// therefore on the same worker.
	e := &ParallelMultiEngine{
		workers:      make([]*parallelWorker, workers),
		authorWorker: make([]int32, g.NumAuthors()),
	}
	// Assign components round-robin; record author → worker.
	for ci, comp := range g.Components() {
		for _, a := range comp {
			e.authorWorker[a] = int32(ci % workers)
		}
	}
	// Build each worker's solver over its shard of every user's
	// subscriptions, each list filtered as its user's components are found,
	// so no per-worker copy of the map is made. An author outside the graph
	// belongs to no shard, but every worker keeps it, so that the build
	// refuses it by name as a one-solver build does. The builds run
	// concurrently, each finding components on its goroutine's share of
	// GOMAXPROCS, so boot runs on GOMAXPROCS goroutines in all. The first
	// error in worker order wins, as a loop over the workers would return it.
	errs := make([]error, workers)
	authorsim.ParallelChunks(runtime.GOMAXPROCS(0), workers, 1, func(procs int) func(c, lo, hi int) {
		return func(w, _, _ int) {
			var md core.MultiDiversifier
			md, err := core.NewSharedMultiUserOn(procs, alg, g, subscriptions, func(a int32) bool {
				return !g.Contains(a) || e.authorWorker[a] == int32(w)
			}, th)
			if err == nil && opts.Adaptive != nil {
				md, err = core.NewAdaptiveMultiUser(md, g, th, *opts.Adaptive)
			}
			e.workers[w], errs[w] = &parallelWorker{md: md, ch: make(chan parallelJob, DefaultQueueDepth)}, err
		}
	}, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, w := range e.workers {
		e.wg.Add(1)
		go func(w *parallelWorker) {
			defer e.wg.Done()
			for job := range w.ch {
				switch {
				case job.barrier != nil:
					// Quiesce checkpoint: everything enqueued before this
					// job has been decided. No queueWait observation — a
					// barrier is not ingest work.
					close(job.barrier)
				case job.batch != nil:
					w.runBatch(job.batch, job.enqueuedAt)
				default:
					w.decide(job.post, job.ticket, job.enqueuedAt)
				}
			}
		}(w)
	}
	return e, nil
}

// decide offers one post to the worker's solver, resolves its ticket t with
// a copy of the deliveries (the ticket outlives the solver's scratch), and
// then records them in the worker's timelines from the solver's scratch,
// still under w.mu. enqueuedAt is the post's queue entry time; the inline
// engine passes the zero time, which records no wait, and a ticket with no
// done channel, which it resolves itself.
func (w *parallelWorker) decide(p *core.Post, t *Ticket, enqueuedAt time.Time) {
	// The ingest boundary serializes enqueues in sequence order, so a
	// non-monotone sequence here is an engine bug, not a caller error.
	seq := t.seq
	if seq <= w.lastSeq {
		panic(fmt.Sprintf("stream: worker received seq %d after %d", seq, w.lastSeq))
	}
	w.lastSeq = seq
	w.mu.Lock()
	defer w.mu.Unlock()
	if !enqueuedAt.IsZero() {
		w.queueWait.ObserveSince(enqueuedAt)
	}
	users := w.md.Offer(p)
	t.users = slices.Clone(users)
	if t.done != nil {
		close(t.done)
	}
	if !w.discard {
		w.timelines.Deliver(p, seq, users)
	}
}

// runBatch decides one shard of a batch into the worker's own delivered
// buffer, copies it into one exactly sized arena per shard — one allocation
// per shard instead of one per delivered post — hands the ticket's per-post
// slots subslices of that arena and resolves the shard. Only then does it
// record the deliveries in the worker's timelines, from its own buffer and
// still under w.mu. enqueuedAt is as for decide; the inline engine's shard
// has no done channel.
func (w *parallelWorker) runBatch(b *batchShardJob, enqueuedAt time.Time) {
	if b.firstSeq <= w.lastSeq {
		panic(fmt.Sprintf("stream: worker received batch seq %d after %d", b.firstSeq, w.lastSeq))
	}
	w.lastSeq = b.lastSeq
	w.mu.Lock()
	defer w.mu.Unlock()
	if !enqueuedAt.IsZero() {
		w.queueWait.ObserveSince(enqueuedAt)
	}
	offs, delivered := append(w.offs[:0], 0), w.delivered[:0]
	for _, p := range b.posts {
		delivered = append(delivered, w.md.Offer(p)...)
		offs = append(offs, int32(len(delivered)))
	}
	w.offs, w.delivered = offs, delivered
	arena := slices.Clone(delivered)
	for i, pos := range b.pos {
		// Full slice expressions cap each result at its own region so a
		// caller appending to one delivery list cannot clobber the next.
		if users := arena[offs[i]:offs[i+1]:offs[i+1]]; len(users) > 0 {
			b.ticket.users[pos] = users
		}
	}
	seqBase := b.ticket.seqBase
	if b.done != nil {
		close(b.done)
		// The close readies the waiting handler into this P's runnext slot,
		// where it would sit until the timeline recording below ends (about
		// 0.2 ms for a 256-post batch). Yielding lets it run now and moves
		// the recording to the back of the run queue, so the ack does not
		// wait for it.
		runtime.Gosched()
	}
	if !w.discard {
		for i, p := range b.posts {
			w.timelines.Deliver(p, seqBase+uint64(b.pos[i]), delivered[offs[i]:offs[i+1]])
		}
	}
}

// Offer routes the post to its component's worker and returns a ticket. It is
// safe for concurrent use; the ingest boundary serializes routing, assigns
// the post a monotone sequence number (Ticket.Seq) and preserves that order
// within every worker queue. The semantic stream order is the sequence order,
// so posts must carry non-decreasing timestamps in it. A post whose author is
// unknown or negative is delivered to no one but still consumes its sequence
// number, as in OfferBatch. The worker reads the post until it has recorded
// it in its timelines, which may be just after the ticket resolves, so the
// caller must not modify a post it has offered.
//
// When the target worker's queue is full, Offer blocks — backpressure — as
// OfferBatch does. After Close has begun it returns ErrClosed. The inline
// engine decides before returning, so its tickets are already resolved.
func (e *ParallelMultiEngine) Offer(p *core.Post) (*Ticket, error) {
	if e.inline {
		t, err := e.offerInline(p)
		if err != nil {
			return nil, err
		}
		return &t, nil
	}
	e.mu.Lock()
	if e.state != stateOpen {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	wi := e.route(p)
	if wi < 0 {
		// Unknown author: no component, no deliveries — but the post keeps
		// its place in the stream order, exactly as in OfferBatch.
		e.seq++
		t := &Ticket{seq: e.seq, done: resolved}
		e.mu.Unlock()
		return t, nil
	}
	w := e.workers[wi]
	t := &Ticket{seq: e.seq + 1, done: make(chan struct{})}
	job := parallelJob{post: p, ticket: t, enqueuedAt: time.Now()}
	// Blocking send while holding the ingest lock: a full shard stalls all
	// producers until its worker drains a slot. Workers never take this
	// lock, so they always make progress and the send terminates.
	w.ch <- job
	e.seq++
	e.mu.Unlock()
	return t, nil
}

// offerInline is the inline engine's Offer: it decides p on the caller's
// goroutine under the ingest lock and returns the resolved ticket by value,
// so the synchronous view allocates nothing for it.
func (e *ParallelMultiEngine) offerInline(p *core.Post) (Ticket, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateOpen {
		return Ticket{}, ErrClosed
	}
	e.seq++
	t := Ticket{seq: e.seq}
	e.workers[0].decide(p, &t, time.Time{})
	t.done = resolved
	return t, nil
}

// route returns the index of the worker that decides p, or -1 when p's author
// belongs to no component.
func (e *ParallelMultiEngine) route(p *core.Post) int {
	if p.Author < 0 || int(p.Author) >= len(e.authorWorker) {
		return -1
	}
	return int(e.authorWorker[p.Author])
}

// OfferBatch ingests a slice of posts as one unit: posts are routed to their
// component's workers in batch order with one channel send per touched
// worker — the batch-amortization lever of Gao, Ferrara & Qiu — and the
// returned ticket resolves every post of the batch. Posts must be
// time-ordered within the batch; the batch order is the stream order, and
// every post receives the sequence number SeqBase()+i whether or not its
// author is known (unknown and negative authors are delivered to no one).
//
// Per-component decision order is identical to offering the posts one by
// one: each worker receives its sub-batch in batch order, and cross-shard
// posts are independent by construction (distinct components never cover
// each other), so only the interleaving of independent decisions differs.
//
// A full worker queue blocks the batch as it blocks Offer, so a batch is never
// partially shed. After Close has begun it returns ErrClosed. The inline
// engine decides the whole batch before returning.
func (e *ParallelMultiEngine) OfferBatch(posts []*core.Post) (*BatchTicket, error) {
	bt := &BatchTicket{users: make([][]int32, len(posts))}
	if len(posts) == 0 {
		return bt, nil
	}
	if e.inline {
		return e.offerBatchInline(bt, posts)
	}
	// Group the batch per worker. shards is index-aligned with e.workers;
	// only touched workers allocate a shard job.
	shards := make([]*batchShardJob, len(e.workers))
	e.mu.Lock()
	if e.state != stateOpen {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	bt.seqBase = e.seq + 1
	for i, p := range posts {
		seq := bt.seqBase + uint64(i)
		wi := e.route(p)
		if wi < 0 {
			continue // no component: bt.users[i] stays nil
		}
		sh := shards[wi]
		if sh == nil {
			sh = &batchShardJob{firstSeq: seq, ticket: bt, done: make(chan struct{})}
			shards[wi] = sh
			bt.pending = append(bt.pending, sh.done)
		}
		sh.posts = append(sh.posts, p)
		sh.pos = append(sh.pos, int32(i))
		sh.lastSeq = seq
	}
	e.seq += uint64(len(posts))
	now := time.Now()
	for wi, sh := range shards {
		if sh == nil {
			continue
		}
		// Blocking send while holding the ingest lock, like Offer's blocking
		// mode: workers never take e.mu, so each drains independently and
		// every send terminates.
		e.workers[wi].ch <- parallelJob{batch: sh, enqueuedAt: now}
	}
	e.mu.Unlock()
	return bt, nil
}

// offerBatchInline is the inline engine's OfferBatch: its one worker decides
// the whole batch, in batch order, on the caller's goroutine.
func (e *ParallelMultiEngine) offerBatchInline(bt *BatchTicket, posts []*core.Post) (*BatchTicket, error) {
	pos := make([]int32, len(posts))
	for i := range pos {
		pos[i] = int32(i)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateOpen {
		return nil, ErrClosed
	}
	bt.seqBase = e.seq + 1
	e.seq += uint64(len(posts))
	e.workers[0].runBatch(&batchShardJob{posts: posts, pos: pos, firstSeq: bt.seqBase, lastSeq: e.seq, ticket: bt}, time.Time{})
	return bt, nil
}

// Close moves the engine to the closing state (subsequent Offers return
// ErrClosed), closes the worker queues and waits until every already-accepted
// job is decided — all outstanding tickets resolve before Close returns. It
// is idempotent and safe to call concurrently with Offer, Counters and other
// Close calls; every call blocks until the drain completes.
func (e *ParallelMultiEngine) Close() {
	e.mu.Lock()
	if e.state != stateOpen {
		e.mu.Unlock()
		// Another Close started the drain; wait for it to finish so every
		// caller observes the fully-drained engine.
		e.wg.Wait()
		return
	}
	e.state = stateClosing
	if !e.inline {
		for _, w := range e.workers {
			close(w.ch)
		}
	}
	e.mu.Unlock()
	e.wg.Wait()
	e.mu.Lock()
	e.state = stateClosed
	e.mu.Unlock()
}

// Counters merges a consistent snapshot of all workers' counters. It is safe
// to call at any time from any goroutine: each worker's counters are read
// under the lock its decision loop holds, so the snapshot never races a
// decision. Workers are snapshotted one at a time, so counts arriving on
// other workers mid-merge may or may not be included — call after Close for
// the exact final totals.
func (e *ParallelMultiEngine) Counters() metrics.Counters {
	snaps := make([]metrics.Counters, len(e.workers))
	for i, w := range e.workers {
		w.mu.Lock()
		snaps[i] = *w.md.Counters()
		w.mu.Unlock()
	}
	return metrics.Sum(snaps...)
}

// WorkerSnapshots returns a per-worker instrumentation snapshot. Like
// Counters it is safe at any time from any goroutine: each worker's state is
// read under that worker's decision lock, one worker at a time, so a
// snapshot never races a decision but workers are not frozen relative to
// each other — call after Close for exact final values. The inline engine has
// no queue and reports none.
func (e *ParallelMultiEngine) WorkerSnapshots() []WorkerSnapshot {
	if e.inline {
		return nil
	}
	snaps := make([]WorkerSnapshot, len(e.workers))
	for i, w := range e.workers {
		w.mu.Lock()
		snaps[i] = WorkerSnapshot{
			Worker:    i,
			QueueLen:  len(w.ch),
			QueueCap:  cap(w.ch),
			QueueWait: w.queueWait,
			Counters:  *w.md.Counters(),
		}
		w.mu.Unlock()
	}
	return snaps
}

// Timeline returns a copy of user u's whole delivered history, oldest first:
// TimelineTail with no limit, so its posts carry no fingerprint either.
func (e *ParallelMultiEngine) Timeline(u int32) []*core.Post {
	tl, _, _ := e.TimelineTail(u, math.MaxInt)
	return tl
}

// TimelineTail returns the newest n posts of user u's delivered history,
// oldest first, and the history's length. Each worker contributes its newest
// n, and the merge by ingest sequence number — the order a one-shard engine
// fed the same stream appends in — keeps the newest n of those. Like Counters
// it reads one worker at a time under its decision lock, so a post decided
// mid-read may be missing while a later one is present. Every post whose
// ticket resolved before the call is included: a worker resolves a ticket
// before it records the post, but holds the lock across both, so the read
// waits for the record.
//
// The posts are copies built from the store and carry ID, Author, Time and
// Text only: the store keeps no fingerprint, since no read serves one (the
// shard router's merged read builds its posts the same way). The error is
// always nil: an in-process read cannot fail, and the result has the shape
// of the shard router's read, which can.
func (e *ParallelMultiEngine) TimelineTail(u int32, n int) (tail []*core.Post, total int, err error) {
	var merged []timelinePost
	for _, w := range e.workers {
		w.mu.Lock()
		var k int
		merged, k = w.timelines.appendTail(merged, u, n)
		w.mu.Unlock()
		total += k
	}
	if len(e.workers) > 1 {
		slices.SortFunc(merged, func(a, b timelinePost) int { return cmp.Compare(a.seq, b.seq) })
		merged = merged[len(merged)-min(max(n, 0), len(merged)):]
	}
	tail = make([]*core.Post, len(merged))
	for i := range merged {
		tail[i] = &merged[i].post
	}
	return tail, total, nil
}

// TimelineSize sums the workers' retained timeline state: posts held once
// each, per-user positions into them, and the bytes the stores retain.
func (e *ParallelMultiEngine) TimelineSize() (posts, entries, bytes uint64) {
	for _, w := range e.workers {
		w.mu.Lock()
		p, n, b := w.timelines.Size()
		w.mu.Unlock()
		posts += p
		entries += n
		bytes += b
	}
	return posts, entries, bytes
}

// DiscardTimelines drops the delivered history and stops recording it, for
// embedders that never read Timeline (the public firehose.ParallelService):
// without it every delivered post would stay reachable for the engine's
// lifetime. Timeline then answers empty. Decisions are unaffected.
func (e *ParallelMultiEngine) DiscardTimelines() {
	for _, w := range e.workers {
		w.mu.Lock()
		w.discard = true
		w.timelines.Reset()
		w.mu.Unlock()
	}
}

// Swap replaces or mutates every shard's solver between decisions — the safe
// point for graph churn: call the solver's SetGraph inside f after a followee
// change has been folded into a refreshed author graph
// (authorsim.MutableVectors + Graph.WithUpdatedAuthor). It runs under
// quiesce, so every post offered before the call is decided by the old
// solvers and every later one by the new. Returning the same instance keeps
// all window state and timelines; returning a fresh instance keeps the
// timelines (delivered history, not solver state) but resets the decision
// windows, which can transiently re-admit duplicates for up to λt. After
// Close it returns ErrClosed.
func (e *ParallelMultiEngine) Swap(f func(core.MultiDiversifier) core.MultiDiversifier) error {
	release, err := e.quiesce()
	if err != nil {
		return err
	}
	defer release()
	for _, w := range e.workers {
		w.mu.Lock()
		w.md = f(w.md)
		w.mu.Unlock()
	}
	return nil
}

// Name returns the backing solver's algorithm name (e.g. "S_UniBin"); every
// shard runs the same algorithm.
func (e *ParallelMultiEngine) Name() string {
	w := e.workers[0]
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.md.Name()
}

// AdaptiveStates merges the per-shard adaptive controller states into one
// per-user view, sorted by user id; it returns nil when the shard solvers are
// not adaptive-wrapped (ParallelOptions.Adaptive, or a core.AdaptiveMultiUser
// handed to NewMultiEngine). Budgets are accounted per shard, so for a
// user spanning several shards the merged entry reports the tightest
// effective thresholds across shards, the summed delivered/suppressed counts,
// and the earliest current window start. Each shard is snapshotted under its
// decision lock, one shard at a time — call after Close for exact totals.
func (e *ParallelMultiEngine) AdaptiveStates() []core.AdaptiveUserState {
	merged := make(map[int32]core.AdaptiveUserState)
	for _, w := range e.workers {
		w.mu.Lock()
		a, ok := w.md.(*core.AdaptiveMultiUser)
		var states []core.AdaptiveUserState
		if ok {
			states = a.UserStates()
		}
		w.mu.Unlock()
		if !ok {
			return nil
		}
		for _, st := range states {
			m, seen := merged[st.User]
			if !seen {
				merged[st.User] = st
				continue
			}
			m.LambdaC = max(m.LambdaC, st.LambdaC)
			m.LambdaT = max(m.LambdaT, st.LambdaT)
			m.WindowStart = min(m.WindowStart, st.WindowStart)
			m.Delivered += st.Delivered
			m.Suppressed += st.Suppressed
			merged[st.User] = m
		}
	}
	out := make([]core.AdaptiveUserState, 0, len(merged))
	for _, st := range merged {
		out = append(out, st)
	}
	slices.SortFunc(out, func(x, y core.AdaptiveUserState) int { return int(x.User - y.User) })
	return out
}

// Suppressed returns the total number of deliveries withheld by the adaptive
// controllers across all shards; 0 for a non-adaptive engine.
func (e *ParallelMultiEngine) Suppressed() uint64 {
	var n uint64
	for _, w := range e.workers {
		w.mu.Lock()
		a, ok := w.md.(*core.AdaptiveMultiUser)
		if ok {
			n += a.Suppressed()
		}
		w.mu.Unlock()
		if !ok {
			return 0
		}
	}
	return n
}

// NumWorkers returns the shard count.
func (e *ParallelMultiEngine) NumWorkers() int { return len(e.workers) }
