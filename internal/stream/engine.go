// Package stream runs the M-SPSD engine over a live feed: ParallelMultiEngine
// decides each post on the worker that owns its author-graph component —
// or, in the inline mode NewMultiEngine builds, on the offering goroutine —
// and every worker keeps the delivered timelines of the posts it decides.
package stream

import "firehose/internal/core"

// MultiEngine is the synchronous view of a ParallelMultiEngine: Offer and
// OfferBatch return the joined deliveries instead of tickets. Everything
// else — timelines, counters, adaptive state, checkpoints, Swap — is the
// engine's own, promoted through the embedding. NewMultiEngine builds it over
// the inline engine; wrapping a goroutine-sharded engine blocks each caller on
// its own decision only, so concurrent callers whose posts land on different
// workers proceed in parallel.
type MultiEngine struct {
	*ParallelMultiEngine
}

// NewMultiEngine builds the inline engine over md and returns its synchronous
// view: one shard, no goroutine, no queue, every decision made on the
// offering goroutine. md sees every post, including authors outside its graph
// (core solvers deliver those to no one).
func NewMultiEngine(md core.MultiDiversifier) *MultiEngine {
	return &MultiEngine{&ParallelMultiEngine{workers: []*parallelWorker{{md: md}}, inline: true}}
}

// Offer decides p and returns the users it was delivered to. The returned
// slice is the caller's to keep.
func (m MultiEngine) Offer(p *core.Post) ([]int32, error) {
	if m.inline {
		t, err := m.offerInline(p)
		return t.users, err
	}
	t, err := m.ParallelMultiEngine.Offer(p)
	if err != nil {
		return nil, err
	}
	return t.Users(), nil
}

// OfferBatch decides a time-ordered batch and returns per-post deliveries in
// batch order.
func (m MultiEngine) OfferBatch(posts []*core.Post) ([][]int32, error) {
	t, err := m.ParallelMultiEngine.OfferBatch(posts)
	if err != nil {
		return nil, err
	}
	return t.Users(), nil
}
