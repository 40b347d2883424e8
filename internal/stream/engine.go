package stream

import (
	"slices"
	"sync"
	"time"

	"firehose/internal/core"
	"firehose/internal/metrics"
)

// Engine runs a single-user diversifier over a live feed. It serializes
// Offer calls (the algorithms are inherently sequential — each decision
// depends on all earlier ones) and fans accepted posts out to subscribers,
// so many goroutines can ingest and many consumers can observe one timeline.
type Engine struct {
	// mu guards: div, subs, done, total, offerLatency
	mu    sync.Mutex
	div   core.Diversifier
	subs  []chan *core.Post
	done  bool
	total uint64
	// offerLatency observes the full Offer critical section — decision plus
	// subscriber fan-out — so a consumer that stops draining its channel
	// shows up here as rising engine latency, distinct from the pure
	// decision cost in the diversifier's own Counters.Decisions.
	offerLatency metrics.Histogram
}

// EngineSnapshot is a consistent view of an Engine's instrumentation.
type EngineSnapshot struct {
	// Offered is the total number of posts pushed through Offer.
	Offered uint64
	// Subscribers is the current subscriber-channel count.
	Subscribers int
	// OfferLatency is the end-to-end Offer latency (decision + fan-out).
	OfferLatency metrics.Histogram
	// Counters snapshots the diversifier's cost counters, including the
	// pure decision latency histogram.
	Counters metrics.Counters
}

// NewEngine wraps a diversifier.
func NewEngine(div core.Diversifier) *Engine {
	return &Engine{div: div}
}

// Offer pushes one post through the diversifier; it reports whether the post
// was emitted and delivers emitted posts to all subscribers. Posts must
// still arrive in global time order across callers.
func (e *Engine) Offer(p *core.Post) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return false, ErrClosed
	}
	defer e.offerLatency.ObserveSince(time.Now())
	e.total++
	if !e.div.Offer(p) {
		return false, nil
	}
	for _, ch := range e.subs {
		ch <- p
	}
	return true, nil
}

// Subscribe returns a channel receiving every emitted post from now on. The
// channel is buffered; a consumer that stops reading will eventually block
// ingestion, which is the backpressure a timeline service wants.
func (e *Engine) Subscribe(buffer int) <-chan *core.Post {
	e.mu.Lock()
	defer e.mu.Unlock()
	ch := make(chan *core.Post, buffer)
	e.subs = append(e.subs, ch)
	return ch
}

// Close closes all subscriber channels; further Offers fail.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return
	}
	e.done = true
	for _, ch := range e.subs {
		close(ch)
	}
}

// Counters snapshots the underlying diversifier's counters.
func (e *Engine) Counters() metrics.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return *e.div.Counters()
}

// Snapshot returns a consistent view of the engine's instrumentation, taken
// under the decision lock so it never interleaves with an Offer.
func (e *Engine) Snapshot() EngineSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineSnapshot{
		Offered:      e.total,
		Subscribers:  len(e.subs),
		OfferLatency: e.offerLatency,
		Counters:     *e.div.Counters(),
	}
}

// Swap atomically replaces or mutates the diversifier between decisions —
// the safe point for applying a refreshed author graph (the paper's
// periodic similarity recomputation). The function receives the current
// diversifier and returns the one to use next; returning the same instance
// (e.g. after calling UniBin.SetGraph on it) keeps all window state, while
// returning a fresh instance resets it, which can transiently re-admit
// duplicates for up to λt.
func (e *Engine) Swap(f func(core.Diversifier) core.Diversifier) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.div = f(e.div)
}

// Consume drains a source through the engine, returning the emitted posts.
func (e *Engine) Consume(src Source) ([]*core.Post, error) {
	var out []*core.Post
	for {
		p, ok := src.Next()
		if !ok {
			return out, nil
		}
		emitted, err := e.Offer(p)
		if err != nil {
			return out, err
		}
		if emitted {
			out = append(out, p)
		}
	}
}

// MultiEngine runs an M-SPSD solver over a live feed, delivering each
// accepted post to the per-user timelines. Like Engine it serializes the
// decision step behind a mutex.
type MultiEngine struct {
	// mu guards: md, timelines, done, offered, delivered, offerLatency
	mu        sync.Mutex
	md        core.MultiDiversifier
	timelines Timelines
	done      bool
	offered   uint64
	delivered uint64
	// offerLatency observes the full routed decision (all affected users'
	// instances) plus timeline bookkeeping.
	offerLatency metrics.Histogram
}

// MultiEngineSnapshot is a consistent view of a MultiEngine's
// instrumentation.
type MultiEngineSnapshot struct {
	// Offered counts posts pushed through Offer; Delivered counts timeline
	// appends (one post delivered to k users counts k).
	Offered, Delivered uint64
	// OfferLatency is the end-to-end Offer latency.
	OfferLatency metrics.Histogram
	// Counters is the merged cost-counter snapshot.
	Counters metrics.Counters
}

// NewMultiEngine wraps a multi-user diversifier.
func NewMultiEngine(md core.MultiDiversifier) *MultiEngine {
	return &MultiEngine{md: md}
}

// Offer routes a post and returns the users it was delivered to. The
// returned slice is the caller's to keep: the engine copies it out of the
// solver's scratch storage (see core.MultiDiversifier's aliasing contract)
// before releasing the decision lock.
func (m *MultiEngine) Offer(p *core.Post) ([]int32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return nil, ErrClosed
	}
	defer m.offerLatency.ObserveSince(time.Now())
	m.offered++
	users := slices.Clone(m.md.Offer(p))
	m.delivered += uint64(len(users))
	m.timelines.Deliver(p, m.offered, users)
	return users, nil
}

// OfferBatch routes a batch of posts under a single lock acquisition,
// returning per-post deliveries in batch order. Posts must be time-ordered
// within the batch (the batch order is the stream order). It exists so batch
// ingest amortizes the lock the way the parallel engine's OfferBatch
// amortizes channel sends. Each post still gets its own offerLatency
// observation, so batch and single ingestion feed the same distribution.
func (m *MultiEngine) OfferBatch(posts []*core.Post) ([][]int32, error) {
	out := make([][]int32, len(posts))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return nil, ErrClosed
	}
	for i, p := range posts {
		start := time.Now()
		m.offered++
		users := slices.Clone(m.md.Offer(p))
		m.delivered += uint64(len(users))
		m.timelines.Deliver(p, m.offered, users)
		m.offerLatency.ObserveSince(start)
		out[i] = users
	}
	return out, nil
}

// Name returns the backing solver's algorithm name (e.g. "S_UniBin").
func (m *MultiEngine) Name() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.md.Name()
}

// Snapshot returns a consistent view of the engine's instrumentation.
func (m *MultiEngine) Snapshot() MultiEngineSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MultiEngineSnapshot{
		Offered:      m.offered,
		Delivered:    m.delivered,
		OfferLatency: m.offerLatency,
		Counters:     *m.md.Counters(),
	}
}

// Timeline returns a copy of user u's accumulated timeline.
func (m *MultiEngine) Timeline(u int32) []*core.Post {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.timelines.Timeline(u)
}

// TimelineSize reports the timeline store's retained state: posts held once
// each, and per-user positions into them.
func (m *MultiEngine) TimelineSize() (posts, entries uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.timelines.Size()
}

// Swap atomically replaces or mutates the solver between decisions — the
// multi-user counterpart of Engine.Swap, and the safe point for graph churn:
// call the solver's SetGraph inside f after a followee change has been
// folded into a refreshed author graph (authorsim.MutableVectors +
// Graph.WithUpdatedAuthor). Returning the same instance keeps all window
// state and timelines; returning a fresh instance keeps the timelines (they
// are delivered history, not solver state) but resets the decision windows,
// which can transiently re-admit duplicates for up to λt.
func (m *MultiEngine) Swap(f func(core.MultiDiversifier) core.MultiDiversifier) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.md = f(m.md)
}

// AdaptiveStates returns the per-user controller states when the solver is
// adaptive-wrapped (core.AdaptiveMultiUser), nil otherwise — the nil/empty
// distinction is how callers (the HTTP metrics surface) detect adaptivity.
func (m *MultiEngine) AdaptiveStates() []core.AdaptiveUserState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, ok := m.md.(*core.AdaptiveMultiUser); ok {
		return a.UserStates()
	}
	return nil
}

// Suppressed returns the adaptive controller's total withheld-delivery count,
// 0 when the solver is not adaptive-wrapped.
func (m *MultiEngine) Suppressed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, ok := m.md.(*core.AdaptiveMultiUser); ok {
		return a.Suppressed()
	}
	return 0
}

// Close stops the engine.
func (m *MultiEngine) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done = true
}

// Counters snapshots the merged counters of the underlying solver.
func (m *MultiEngine) Counters() metrics.Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return *m.md.Counters()
}
