package core

import (
	"fmt"
	"slices"

	"firehose/internal/authorsim"
	"firehose/internal/metrics"
	"firehose/internal/simhash"
)

// This file adds the adaptive per-user threshold controller: a regulation
// layer over any MultiDiversifier that keeps each user's delivery rate
// inside a configured budget by tightening the user's effective λc/λt when
// the rate overshoots and relaxing back toward the configured baseline when
// the user is starved. The paper fixes one (λc, λt) per user for the whole
// stream; under adversarial shapes (flash crowds, cascades) a fixed
// threshold either floods the timeline or, if chosen for the worst case,
// over-prunes the quiet hours. Dynamic-threshold filtering under drift is
// the control knob Zhu et al. argue for, and per-user exposure budgets are
// the regulated quantity of Aslay et al.
//
// Widening the coverage ball can only prune more: a post covered at the
// baseline thresholds is covered at any (λc' ≥ λc, λt' ≥ λt). So the
// controller only ever *suppresses* deliveries the wrapped solver would
// make, never invents one — the diversified sub-stream stays a sub-stream.

// AdaptivePolicy configures the per-user delivery-rate controller. The zero
// value is invalid; every field is explicit because the budget semantics are
// the public contract golden-tested by the scenario suite.
type AdaptivePolicy struct {
	// BudgetPosts is the per-user delivery budget per window: closing a
	// window with more deliveries tightens the user's thresholds one step;
	// closing it with total demand (deliveries plus controller suppressions)
	// under budget relaxes them one step toward the baseline. Suppressions
	// count as demand so sustained pressure holds the tightened thresholds
	// steady instead of oscillating between flood and famine.
	BudgetPosts int
	// WindowMillis is the budget accounting window, in stream time —
	// controller decisions depend on post timestamps only, never on the
	// wall clock, so a replayed stream reproduces them bit for bit.
	WindowMillis int64
	// MaxLambdaC / MaxLambdaT cap how far tightening may raise the
	// effective thresholds above the baseline. Setting either equal to the
	// baseline pins that threshold.
	MaxLambdaC int
	MaxLambdaT int64
	// StepLambdaC / StepLambdaT are the per-adjustment increments. At least
	// one must be positive.
	StepLambdaC int
	StepLambdaT int64
}

// Validate checks the policy against the baseline thresholds it regulates.
func (pol AdaptivePolicy) Validate(base Thresholds) error {
	switch {
	case pol.BudgetPosts < 1:
		return fmt.Errorf("core: adaptive BudgetPosts must be >= 1, got %d", pol.BudgetPosts)
	case pol.WindowMillis < 1:
		return fmt.Errorf("core: adaptive WindowMillis must be >= 1, got %d", pol.WindowMillis)
	case pol.StepLambdaC < 0 || pol.StepLambdaT < 0:
		return fmt.Errorf("core: adaptive steps must be non-negative")
	case pol.StepLambdaC == 0 && pol.StepLambdaT == 0:
		return fmt.Errorf("core: adaptive policy needs at least one positive step")
	case pol.MaxLambdaC < base.LambdaC || pol.MaxLambdaC > simhash.Size:
		return fmt.Errorf("core: adaptive MaxLambdaC %d outside [baseline λc %d, %d]",
			pol.MaxLambdaC, base.LambdaC, simhash.Size)
	case pol.MaxLambdaT < base.LambdaT:
		return fmt.Errorf("core: adaptive MaxLambdaT %d below baseline λt %d",
			pol.MaxLambdaT, base.LambdaT)
	}
	return nil
}

// adaptiveUser is one user's controller state: the effective thresholds, the
// current budget window, and the delivered-post history the suppression
// probe runs against. The history bin is always exact-scan — the simindex
// layout is fixed per λc at construction, and the whole point here is that
// λc moves at runtime.
type adaptiveUser struct {
	lc          int
	lt          int64
	windowStart int64
	started     bool
	delivered   int // deliveries in the current window
	// winSuppressed counts suppressions in the current window; suppressed is
	// the running total. The window count feeds the relax rule: a window full
	// of suppressed posts is pressure held at bay, not a starved user, and
	// relaxing on it would re-open the floodgate every other window
	// (bang-bang oscillation between 0 and the full flood rate).
	winSuppressed int
	suppressed    uint64
	hist          covBin
}

// roll advances the user's budget window to contain stream time t, applying
// one threshold adjustment per closed window: tighten when deliveries
// overshot the budget, relax one step toward the baseline when the window was
// genuinely quiet — total demand (deliveries plus suppressions) under budget.
// Empty elapsed windows each relax one step, so a starved user drifts back to
// the baseline.
func (st *adaptiveUser) roll(t int64, pol AdaptivePolicy, base Thresholds) {
	if !st.started {
		st.started = true
		st.windowStart = t
		return
	}
	for t-st.windowStart >= pol.WindowMillis {
		if st.delivered > pol.BudgetPosts {
			st.lc = min(st.lc+pol.StepLambdaC, pol.MaxLambdaC)
			st.lt = min(st.lt+pol.StepLambdaT, pol.MaxLambdaT)
		} else if st.delivered+st.winSuppressed < pol.BudgetPosts {
			st.lc = max(st.lc-pol.StepLambdaC, base.LambdaC)
			st.lt = max(st.lt-pol.StepLambdaT, base.LambdaT)
		}
		st.windowStart += pol.WindowMillis
		st.delivered = 0
		st.winSuppressed = 0
	}
}

// AdaptiveUserState is one user's controller state snapshot, for metrics
// gauges and scenario reports.
type AdaptiveUserState struct {
	User        int32
	LambdaC     int
	LambdaT     int64
	WindowStart int64
	// Delivered counts deliveries in the user's current window; Suppressed
	// counts deliveries the controller withheld over the whole run.
	Delivered  int
	Suppressed uint64
}

// AdaptiveMultiUser wraps a MultiDiversifier with the per-user controller.
// The wrapped solver always decides first under the baseline thresholds; for
// each user it would deliver to, the controller re-checks the post against
// that user's *delivered* history under the user's effective thresholds and
// withholds it when covered. While a user sits at the baseline the probe is
// skipped entirely: a delivered post is one some solver instance accepted,
// so no delivered post within the baseline ball can exist (the solver would
// have rejected the arrival) — delegation is exact, not approximate, which
// is what the disabled/pinned bit-identity property tests pin.
//
// Like the solvers it wraps, an AdaptiveMultiUser is single-goroutine: the
// stream engines serialize Offer. The returned slice follows the
// MultiDiversifier aliasing contract (valid until the next Offer).
//
// Checkpointing is deliberately unsupported: the controller's value is
// regulating a live stream, and a restored engine re-converges within a few
// windows; encoding every user's history bin would roughly double snapshot
// size for that transient. The stream layer refuses descriptively, as it
// does for other non-snapshottable solvers.
type AdaptiveMultiUser struct {
	inner   MultiDiversifier
	base    Thresholds
	pol     AdaptivePolicy
	g       AuthorGraph
	users   map[int32]*adaptiveUser
	scratch []int32 // Offer's reusable delivery buffer (aliasing contract)
}

// NewAdaptiveMultiUser wraps inner with the controller. base must be the
// thresholds inner was built with (they are the relax floor), g the author
// graph (the suppression probe answers the author dimension with it).
// Per-user baselines (the Custom_M layout) are not supported: the controller
// regulates against one baseline.
func NewAdaptiveMultiUser(inner MultiDiversifier, g AuthorGraph, base Thresholds, pol AdaptivePolicy) (*AdaptiveMultiUser, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := pol.Validate(base); err != nil {
		return nil, err
	}
	return &AdaptiveMultiUser{
		inner: inner,
		base:  base,
		pol:   pol,
		g:     g,
		users: make(map[int32]*adaptiveUser),
	}, nil
}

// Inner returns the wrapped solver.
func (a *AdaptiveMultiUser) Inner() MultiDiversifier { return a.inner }

// Name implements MultiDiversifier.
func (a *AdaptiveMultiUser) Name() string { return "Adaptive(" + a.inner.Name() + ")" }

// Counters implements MultiDiversifier: the wrapped solver's merged cost
// counters. Controller suppressions are not solver rejections — they are
// reported per user via UserStates and in aggregate via Suppressed.
func (a *AdaptiveMultiUser) Counters() *metrics.Counters { return a.inner.Counters() }

func (a *AdaptiveMultiUser) user(u int32) *adaptiveUser {
	st := a.users[u]
	if st == nil {
		st = &adaptiveUser{lc: a.base.LambdaC, lt: a.base.LambdaT}
		a.users[u] = st
	}
	return st
}

// Offer implements MultiDiversifier.
func (a *AdaptiveMultiUser) Offer(p *Post) []int32 {
	users := a.inner.Offer(p)
	if len(users) == 0 {
		return nil
	}
	out := a.scratch[:0]
	for _, u := range users {
		st := a.user(u)
		st.roll(p.Time, a.pol, a.base)
		cutoff := p.Time - st.lt
		st.hist.pruneBefore(cutoff)
		if st.lc > a.base.LambdaC || st.lt > a.base.LambdaT {
			if covered, _ := st.hist.scan(uint64(p.FP), st.lc, cutoff, func(_ int, b int32) bool { return a.g.Similar(p.Author, b) }); covered {
				st.suppressed++
				st.winSuppressed++
				continue
			}
		}
		st.hist.push(p.Time, uint64(p.FP), p.Author)
		st.delivered++
		out = append(out, u)
	}
	a.scratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Suppressed returns the total number of deliveries the controller withheld.
func (a *AdaptiveMultiUser) Suppressed() uint64 {
	var n uint64
	for _, st := range a.users {
		n += st.suppressed
	}
	return n
}

// UserStates returns every touched user's controller state, sorted by user
// id. Users the stream never delivered to have no state yet and are absent.
func (a *AdaptiveMultiUser) UserStates() []AdaptiveUserState {
	out := make([]AdaptiveUserState, 0, len(a.users))
	for u, st := range a.users {
		out = append(out, AdaptiveUserState{
			User:        u,
			LambdaC:     st.lc,
			LambdaT:     st.lt,
			WindowStart: st.windowStart,
			Delivered:   st.delivered,
			Suppressed:  st.suppressed,
		})
	}
	slices.SortFunc(out, func(x, y AdaptiveUserState) int { return int(x.User - y.User) })
	return out
}

// SetGraph implements the graph-churn hook by delegating to the wrapped
// solver and, on success, pointing the suppression probe at the refreshed
// graph. The delivered-history bins are graph-independent, like UniBin's.
func (a *AdaptiveMultiUser) SetGraph(g *authorsim.Graph) error {
	swapper, ok := a.inner.(interface {
		SetGraph(*authorsim.Graph) error
	})
	if !ok {
		return fmt.Errorf("core: %s does not support graph refresh", a.inner.Name())
	}
	if err := swapper.SetGraph(g); err != nil {
		return err
	}
	a.g = g
	return nil
}
