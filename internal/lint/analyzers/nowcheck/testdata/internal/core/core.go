// Package core sits on a decision-path import suffix (…/internal/core), so
// every wall-clock read outside the latency idiom must be reported.
package core

import "time"

// Histogram mirrors the metrics.Histogram surface the idiom defers into.
type Histogram struct{ count uint64 }

func (h *Histogram) ObserveSince(t0 time.Time) { h.count++ }

func (h *Histogram) ObserveNSince(t0 time.Time, n int) { h.count += uint64(n) }

func sink(t time.Time) {}

type bin struct {
	h    Histogram
	last int64
}

// Offer uses the single allowed form: the time.Now feeds only the latency
// histogram, never a decision.
func (b *bin) Offer(t int64) bool {
	defer b.h.ObserveSince(time.Now())
	return t > b.last
}

// OfferMany uses the batched form: one clock read observed as n decisions.
func (b *bin) OfferMany(t int64, n int) bool {
	defer b.h.ObserveNSince(time.Now(), n)
	return t > b.last
}

// LateStart passes the clock as the batched form's count — not the idiom.
func (b *bin) LateStart(t0 time.Time) {
	defer b.h.ObserveNSince(t0, int(time.Now().Unix())) // want `time.Now in a decision-path package breaks replay determinism`
}

// Stamp couples a decision input to the wall clock — replay would diverge.
func (b *bin) Stamp() int64 {
	return time.Now().UnixMilli() // want `time.Now in a decision-path package breaks replay determinism`
}

// Age uses time.Since, the other forbidden form.
func (b *bin) Age(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since in a decision-path package breaks replay determinism`
}

// Leak defers a non-idiom call; its time.Now is not exempt.
func (b *bin) Leak() {
	defer sink(time.Now()) // want `time.Now in a decision-path package breaks replay determinism`
}
