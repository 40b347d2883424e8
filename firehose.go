// Package firehose is a streaming multi-dimensional diversifier for social
// post streams, implementing Cheng, Chrobak and Hristidis, "Slowing the
// Firehose: Multi-Dimensional Diversity on Social Post Streams" (EDBT 2016).
//
// Given a stream of posts — each with an author, text and timestamp — a
// Diversifier decides in real time, post by post, whether each post carries
// new information or is redundant with respect to an already-emitted post.
// Two posts are mutually redundant ("cover" each other) only when they are
// close in all three dimensions at once:
//
//   - content: Hamming distance of 64-bit SimHash fingerprints ≤ LambdaC,
//   - time: timestamp distance ≤ LambdaT,
//   - author: author distance (1 − cosine similarity of the authors'
//     followee sets) ≤ LambdaA.
//
// The emitted sub-stream covers the full stream: every pruned post is
// similar, in all three dimensions, to some emitted post.
//
// Three interchangeable algorithms trade memory for comparisons (paper
// Table 3): UniBin (one bin, least RAM, most comparisons), NeighborBin (a
// bin per author, most RAM, fewest comparisons) and CliqueBin (a bin per
// clique of a clique edge cover, in between). Use UniBin for low-throughput
// or dense-graph feeds (news, scholarly alerts), NeighborBin for
// high-throughput feeds with long time thresholds, CliqueBin for
// high-throughput feeds with moderate time thresholds (paper Table 4).
//
// For a service diversifying timelines of many users at once, use
// MultiUserService: users whose subscription graphs share a connected
// component share diversification state and computation (the paper's S_*
// optimization).
package firehose

import (
	"fmt"
	"slices"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/cosine"
	"firehose/internal/metrics"
	"firehose/internal/simhash"
	"firehose/internal/textnorm"
)

// AuthorID identifies an author: a dense index 0..NumAuthors-1 into the
// author similarity graph.
type AuthorID = int32

// UserID identifies a user of a MultiUserService, a dense index into the
// subscriptions slice it was built with.
type UserID = int32

// Post is one social post. The zero Time is allowed but posts must be
// offered in non-decreasing Time order.
type Post struct {
	// ID is an optional caller-assigned identifier, echoed back in results.
	// ID contract: 0 means "unset" — a Diversifier replaces it with an
	// auto-assigned id strictly greater than every id seen so far (caller-
	// supplied or auto-assigned), so mixing the two never collides. Callers
	// that assign their own ids should use ids ≥ 1: an explicit 0 is
	// indistinguishable from unset and will be rewritten.
	ID uint64
	// Author must be a valid AuthorID of the service's author graph.
	Author AuthorID
	// Time is the post timestamp.
	Time time.Time
	// Text is the raw post content; fingerprinting normalizes it internally.
	Text string
}

// Algorithm selects the SPSD algorithm backing a diversifier.
type Algorithm = core.Algorithm

// Available algorithms (paper Section 4).
const (
	UniBin      = core.AlgUniBin
	NeighborBin = core.AlgNeighborBin
	CliqueBin   = core.AlgCliqueBin
)

// Config holds the three diversity thresholds of the coverage model plus
// the engine's index policy.
type Config struct {
	// LambdaC is the maximum SimHash Hamming distance (bits) for two posts
	// to be content-similar. 0..64.
	LambdaC int
	// LambdaT is the maximum time distance for two posts to be time-similar.
	// The engine resolves time in whole milliseconds, so LambdaT must be a
	// non-negative multiple of time.Millisecond; constructors reject other
	// values rather than silently truncating them.
	LambdaT time.Duration
	// LambdaA is the maximum author distance in [0,1) for two authors to be
	// similar; it is baked into the author graph at build time and must
	// match the graph passed to the constructors.
	LambdaA float64
	// Index selects how the scan algorithms answer the content dimension:
	// IndexAuto (the zero value) probes a SimHash index inside UniBin's
	// global bin when LambdaC is strict enough for the index to be a clear
	// win (λc ≤ 3, a ≤4-table layout) and scans exactly otherwise; IndexOff
	// forces the exact scan everywhere; IndexOn forces the index into every
	// bin at any feasible LambdaC (λc ≤ 6) and makes construction fail when
	// LambdaC is index-infeasible. The policy is an
	// acceleration choice only — the emitted stream is identical under all
	// of them — and it is deliberately excluded from checkpoint
	// compatibility: snapshots restore across policy changes.
	Index IndexPolicy
}

// IndexPolicy selects the content-lookup mechanics of the scan algorithms;
// see Config.Index.
type IndexPolicy = core.IndexPolicy

// Index policies.
const (
	// IndexAuto indexes UniBin's global bin when LambdaC permits, exact
	// scan otherwise. The zero value and the default.
	IndexAuto = core.IndexAuto
	// IndexOff forces the exact batched-kernel scan in every bin.
	IndexOff = core.IndexOff
	// IndexOn forces the SimHash index into every bin of every algorithm;
	// constructors reject index-infeasible LambdaC values.
	IndexOn = core.IndexOn
)

// ParseIndexPolicy parses "auto", "off" or "on" (the empty string is auto),
// for wiring the policy to flags and configuration files.
func ParseIndexPolicy(s string) (IndexPolicy, error) { return core.ParseIndexPolicy(s) }

// DefaultConfig returns the paper's default thresholds: λc = 18 bits,
// λt = 30 minutes, λa = 0.7 (authors similar at cosine ≥ 0.3).
func DefaultConfig() Config {
	return Config{LambdaC: 18, LambdaT: 30 * time.Minute, LambdaA: 0.7}
}

func (c Config) thresholds() core.Thresholds {
	return core.Thresholds{
		LambdaC: c.LambdaC,
		LambdaT: c.LambdaT.Milliseconds(),
		LambdaA: c.LambdaA,
		Index:   c.Index,
	}
}

// AdaptiveConfig configures the optional per-user delivery-rate controller of
// the multi-user services. When set, each user has a delivery budget per
// accounting window: closing a window over budget tightens the user's
// effective λc/λt one step (widening the coverage ball prunes more), closing
// it under budget relaxes them one step back toward the configured baseline.
// The controller only ever withholds deliveries the underlying solver would
// make — the emitted timeline stays a sub-stream of the non-adaptive one —
// and its decisions depend on post timestamps only, so replays reproduce them
// exactly. A nil AdaptiveConfig (the default) leaves the service byte-for-byte
// on the non-adaptive code path.
//
// Adaptive services do not support checkpointing: controller state is a
// short transient that re-converges within a few windows after a restart,
// and Snapshot refuses descriptively rather than pretending to carry it.
type AdaptiveConfig struct {
	// BudgetPosts is the per-user delivery budget per window. Must be ≥ 1.
	BudgetPosts int
	// Window is the budget accounting window in stream time. Like Config's
	// LambdaT it must be a positive whole number of milliseconds.
	Window time.Duration
	// MaxLambdaC and MaxLambdaT cap how far tightening may raise the
	// effective thresholds above the baseline Config. MaxLambdaC must be in
	// [Config.LambdaC, 64] and MaxLambdaT ≥ Config.LambdaT (a whole number of
	// milliseconds); setting either equal to the baseline pins that
	// threshold.
	MaxLambdaC int
	MaxLambdaT time.Duration
	// StepLambdaC and StepLambdaT are the per-window adjustment increments.
	// Both must be non-negative, at least one positive, and StepLambdaT a
	// whole number of milliseconds.
	StepLambdaC int
	StepLambdaT time.Duration
}

// policy converts to the core controller policy, validating the public
// duration fields against the engine's millisecond resolution.
func (a AdaptiveConfig) policy(base core.Thresholds) (core.AdaptivePolicy, error) {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"Window", a.Window}, {"MaxLambdaT", a.MaxLambdaT}, {"StepLambdaT", a.StepLambdaT}} {
		if d.v%time.Millisecond != 0 {
			return core.AdaptivePolicy{}, fmt.Errorf("firehose: Adaptive.%s %v is not a whole number of milliseconds (the engine's time resolution)", d.name, d.v)
		}
	}
	pol := core.AdaptivePolicy{
		BudgetPosts:  a.BudgetPosts,
		WindowMillis: a.Window.Milliseconds(),
		MaxLambdaC:   a.MaxLambdaC,
		MaxLambdaT:   a.MaxLambdaT.Milliseconds(),
		StepLambdaC:  a.StepLambdaC,
		StepLambdaT:  a.StepLambdaT.Milliseconds(),
	}
	if err := pol.Validate(base); err != nil {
		return core.AdaptivePolicy{}, err
	}
	return pol, nil
}

// AdaptiveUserState is one user's controller state, reported by the services'
// AdaptiveStates.
type AdaptiveUserState struct {
	// User is the user id.
	User UserID
	// LambdaC and LambdaT are the user's current effective thresholds; they
	// equal the baseline Config when the user is inside budget.
	LambdaC int
	LambdaT time.Duration
	// Delivered counts deliveries in the user's current accounting window;
	// Suppressed counts deliveries the controller withheld over the run.
	Delivered  int
	Suppressed uint64
}

func publicAdaptiveStates(states []core.AdaptiveUserState) []AdaptiveUserState {
	if states == nil {
		return nil
	}
	out := make([]AdaptiveUserState, len(states))
	for i, st := range states {
		out[i] = AdaptiveUserState{
			User:       st.User,
			LambdaC:    st.LambdaC,
			LambdaT:    time.Duration(st.LambdaT) * time.Millisecond,
			Delivered:  st.Delivered,
			Suppressed: st.Suppressed,
		}
	}
	return out
}

// Stats reports the cost counters of a diversifier, mirroring the metrics
// of the paper's evaluation.
type Stats struct {
	// Comparisons is the number of pairwise post coverage checks performed.
	Comparisons uint64
	// Insertions is the number of post copies inserted into bins.
	Insertions uint64
	// Evictions is the number of post copies expired out of the λt window.
	Evictions uint64
	// Accepted and Rejected count emitted and pruned posts.
	Accepted, Rejected uint64
	// PeakCopies is the maximum number of post copies simultaneously stored.
	PeakCopies int64
	// EstRAMBytes converts PeakCopies into an approximate byte footprint.
	EstRAMBytes int64
	// DecisionLatency summarizes the per-post decision latency distribution.
	DecisionLatency LatencySummary
}

// LatencySummary condenses a latency histogram into the usual percentiles.
// Percentiles are interpolated within fixed histogram buckets (20 bounds from
// 100ns to 1s), so they are estimates with bucket-level resolution; Mean is
// exact.
type LatencySummary struct {
	// Count is the number of observations.
	Count uint64
	// Mean is the exact arithmetic mean.
	Mean time.Duration
	// P50, P95 and P99 are interpolated percentiles.
	P50, P95, P99 time.Duration
}

func latencySummaryOf(h metrics.Histogram) LatencySummary {
	return LatencySummary{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// PruneRatio returns the fraction of offered posts pruned as redundant.
func (s Stats) PruneRatio() float64 {
	if t := s.Accepted + s.Rejected; t > 0 {
		return float64(s.Rejected) / float64(t)
	}
	return 0
}

// AuthorGraph is the precomputed author similarity graph G(λa): an edge
// connects two authors whose followee-cosine distance is at most λa. Build
// it offline (author similarity drifts slowly — the paper suggests weekly
// recomputation) and share it read-only across any number of diversifiers;
// it is safe for concurrent use.
type AuthorGraph struct {
	g       *authorsim.Graph
	lambdaA float64
}

// BuildAuthorGraph computes the author similarity graph from followee
// vectors: followees[a] lists the account ids author a follows (ids may
// exceed the author range, as with accounts outside the corpus). lambdaA
// must be in [0,1).
func BuildAuthorGraph(followees [][]AuthorID, lambdaA float64) (*AuthorGraph, error) {
	if lambdaA < 0 || lambdaA >= 1 {
		return nil, fmt.Errorf("firehose: lambdaA must be in [0,1), got %v", lambdaA)
	}
	v := authorsim.NewVectors(followees)
	return &AuthorGraph{g: authorsim.BuildGraph(v, lambdaA), lambdaA: lambdaA}, nil
}

// NewAuthorGraphFromEdges builds an author graph directly from a similar-pair
// edge list — for callers that precompute author similarity externally.
func NewAuthorGraphFromEdges(numAuthors int, edges [][2]AuthorID, lambdaA float64) (g *AuthorGraph, err error) {
	if lambdaA < 0 || lambdaA >= 1 {
		return nil, fmt.Errorf("firehose: lambdaA must be in [0,1), got %v", lambdaA)
	}
	defer func() {
		// authorsim panics on malformed edges; surface that as an error at
		// the public boundary.
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("firehose: %v", r)
		}
	}()
	pairs := make([]authorsim.SimPair, len(edges))
	for i, e := range edges {
		pairs[i] = authorsim.SimPair{A: e[0], B: e[1]}
	}
	return &AuthorGraph{g: authorsim.NewGraph(numAuthors, pairs, lambdaA), lambdaA: lambdaA}, nil
}

// NumAuthors returns the number of authors in the graph.
func (ag *AuthorGraph) NumAuthors() int { return ag.g.NumAuthors() }

// NumEdges returns the number of similar author pairs.
func (ag *AuthorGraph) NumEdges() int { return ag.g.NumEdges() }

// Similar reports whether two authors are the same or similar (distance ≤ λa).
func (ag *AuthorGraph) Similar(a, b AuthorID) bool { return ag.g.Similar(a, b) }

// Neighbors returns the authors similar to a (excluding a itself). The
// returned slice must not be modified.
func (ag *AuthorGraph) Neighbors(a AuthorID) []AuthorID { return ag.g.Neighbors(a) }

// AvgDegree returns the average number of similar authors per author (the
// paper's topology parameter d).
func (ag *AuthorGraph) AvgDegree() float64 { return ag.g.AvgDegree() }

// LambdaA returns the author distance threshold the graph encodes.
func (ag *AuthorGraph) LambdaA() float64 { return ag.lambdaA }

// AuthorSimilarity computes the cosine similarity of two followee sets —
// the measure baked into BuildAuthorGraph, exposed for inspection and for
// callers computing similarity pairs themselves.
func AuthorSimilarity(followeesA, followeesB []AuthorID) float64 {
	va := authorsim.NewVectors([][]int32{followeesA, followeesB})
	return va.Similarity(0, 1)
}

// allAuthors enumerates 0..n-1.
func allAuthors(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// Diversifier solves the single-user problem (SPSD): offer it the merged
// stream of one user's subscriptions and it answers, per post and in real
// time, whether the post belongs on the diversified timeline.
//
// Posts must be offered in non-decreasing time order. A Diversifier is not
// safe for concurrent use — decisions are inherently sequential; serialize
// access or use one goroutine.
type Diversifier struct {
	inner  core.Diversifier
	nextID uint64
	meta   snapMeta
}

// NewDiversifier builds a diversifier running alg over the authors the user
// subscribes to. Pass subscribed = nil to subscribe to every author of the
// graph. The config's LambdaA must equal the graph's.
func NewDiversifier(alg Algorithm, g *AuthorGraph, subscribed []AuthorID, cfg Config) (*Diversifier, error) {
	if err := checkConfig(cfg, g); err != nil {
		return nil, err
	}
	if subscribed == nil {
		subscribed = allAuthors(g.NumAuthors())
	}
	if err := checkAuthors(subscribed, g.NumAuthors()); err != nil {
		return nil, err
	}
	inner, err := core.NewDiversifier(alg, g.g, subscribed, cfg.thresholds())
	if err != nil {
		return nil, err
	}
	return &Diversifier{inner: inner, meta: metaFor(inner.Name(), g, [][]AuthorID{subscribed}, []Config{cfg})}, nil
}

func checkConfig(cfg Config, g *AuthorGraph) error {
	if g == nil {
		return fmt.Errorf("firehose: nil author graph")
	}
	if cfg.LambdaT%time.Millisecond != 0 {
		// The core engine resolves time in whole milliseconds; silently
		// truncating would turn a sub-millisecond λt into 0 and disable the
		// time dimension entirely.
		return fmt.Errorf("firehose: LambdaT %v is not a whole number of milliseconds (the engine's time resolution); round it to a multiple of %v", cfg.LambdaT, time.Millisecond)
	}
	if err := cfg.thresholds().Validate(); err != nil {
		return err
	}
	if cfg.LambdaA != g.lambdaA {
		return fmt.Errorf("firehose: config LambdaA %v does not match graph LambdaA %v",
			cfg.LambdaA, g.lambdaA)
	}
	return nil
}

func checkAuthors(authors []AuthorID, n int) error {
	for _, a := range authors {
		if a < 0 || int(a) >= n {
			return fmt.Errorf("firehose: author %d outside graph range [0,%d)", a, n)
		}
	}
	return nil
}

// Offer decides whether p joins the diversified timeline. The decision is
// immediate and irrevocable (Problem 1's real-time semantics). Offer panics
// if posts arrive out of time order.
func (d *Diversifier) Offer(p Post) bool {
	return d.inner.Offer(d.toCore(p))
}

func (d *Diversifier) toCore(p Post) *core.Post {
	id := p.ID
	if id == 0 {
		d.nextID++
		id = d.nextID
	} else if id > d.nextID {
		// Track the highest caller-supplied id so later auto-assigned ids
		// never collide with ids the caller already used.
		d.nextID = id
	}
	return core.NewPost(id, p.Author, p.Time.UnixMilli(), p.Text)
}

// Filter drains in-order posts from a slice and returns the diversified
// sub-stream.
func (d *Diversifier) Filter(posts []Post) []Post {
	var out []Post
	for _, p := range posts {
		if d.Offer(p) {
			out = append(out, p)
		}
	}
	return out
}

// Algorithm returns the name of the backing algorithm.
func (d *Diversifier) Algorithm() string { return d.inner.Name() }

// Stats snapshots the run's cost counters.
func (d *Diversifier) Stats() Stats { return statsOf(d.inner.Counters()) }

// MultiUserService solves the multi-user problem (M-SPSD): one central
// engine diversifies the timeline of every user. Users subscribing to the
// same connected component of similar authors share state and computation
// (the paper's S_* algorithms); ServiceOptions.Independent runs one
// independent diversifier per user (M_*), which is only useful as a baseline.
//
// A MultiUserService is not safe for concurrent use; serialize Offer calls.
type MultiUserService struct {
	inner core.MultiDiversifier
	meta  snapMeta
}

// ServiceOptions configures NewService. Exactly one threshold source must be
// set: Config for a uniform service, UserConfigs for per-user thresholds.
type ServiceOptions struct {
	// Algorithm is the per-component SPSD algorithm. The zero value is
	// UniBin — the paper found S_UniBin superior in the multi-user setting.
	Algorithm Algorithm
	// Config holds the service-wide thresholds. It is required unless
	// UserConfigs is set; there is no implicit default — use DefaultConfig()
	// explicitly for the paper's thresholds.
	Config Config
	// Independent disables cross-user sharing (the M_* baselines of
	// Section 5). Only meaningful with Config: per-user thresholds already
	// preclude sharing.
	Independent bool
	// UserConfigs gives every user individual LambdaC/LambdaT thresholds
	// (UserConfigs[u] applies to subscriptions[u]); all entries must carry
	// the graph's LambdaA, since the author dimension is baked into the
	// shared graph. Setting UserConfigs selects independent per-user
	// instances and is mutually exclusive with Config.
	UserConfigs []Config
	// Adaptive, when non-nil, layers the per-user delivery-rate controller
	// over the service; see AdaptiveConfig. It regulates against the single
	// Config baseline and is therefore mutually exclusive with UserConfigs,
	// whose per-user thresholds already express static customization.
	Adaptive *AdaptiveConfig
	// Topology, when non-nil, stamps the service's place in a horizontally
	// sharded deployment into its snapshot fingerprint; see Topology. Nil is
	// the single-node deployment.
	Topology *Topology
}

// NewService builds a multi-user diversification service. subscriptions[u]
// lists the authors user u follows.
func NewService(g *AuthorGraph, subscriptions [][]AuthorID, opts ServiceOptions) (*MultiUserService, error) {
	if g == nil {
		return nil, fmt.Errorf("firehose: nil author graph")
	}
	if opts.UserConfigs != nil {
		if opts.Config != (Config{}) {
			return nil, fmt.Errorf("firehose: ServiceOptions.Config and UserConfigs are mutually exclusive")
		}
		if opts.Adaptive != nil {
			return nil, fmt.Errorf("firehose: ServiceOptions.Adaptive and UserConfigs are mutually exclusive: the controller regulates against one baseline Config")
		}
		if len(subscriptions) != len(opts.UserConfigs) {
			return nil, fmt.Errorf("firehose: %d subscription lists but %d user configs",
				len(subscriptions), len(opts.UserConfigs))
		}
		ths := make([]core.Thresholds, len(opts.UserConfigs))
		for u, cfg := range opts.UserConfigs {
			if err := checkConfig(cfg, g); err != nil {
				return nil, fmt.Errorf("user %d: %w", u, err)
			}
			ths[u] = cfg.thresholds()
		}
		inner, err := core.NewCustomMultiUser(opts.Algorithm, g.g, int32Slices(subscriptions), ths)
		if err != nil {
			return nil, err
		}
		meta := metaFor(inner.Name(), g, subscriptions, opts.UserConfigs)
		if err := meta.applyTopology(opts.Topology); err != nil {
			return nil, err
		}
		return &MultiUserService{inner: inner, meta: meta}, nil
	}
	if err := checkConfig(opts.Config, g); err != nil {
		return nil, err
	}
	for u, subs := range subscriptions {
		if err := checkAuthors(subs, g.NumAuthors()); err != nil {
			return nil, fmt.Errorf("user %d: %w", u, err)
		}
	}
	var (
		inner core.MultiDiversifier
		err   error
	)
	if opts.Independent {
		inner, err = core.NewMultiUser(opts.Algorithm, g.g, int32Slices(subscriptions), opts.Config.thresholds())
	} else {
		inner, err = core.NewSharedMultiUser(opts.Algorithm, g.g, int32Slices(subscriptions), opts.Config.thresholds())
	}
	if err != nil {
		return nil, err
	}
	if opts.Adaptive != nil {
		pol, err := opts.Adaptive.policy(opts.Config.thresholds())
		if err != nil {
			return nil, err
		}
		inner, err = core.NewAdaptiveMultiUser(inner, g.g, opts.Config.thresholds(), pol)
		if err != nil {
			return nil, err
		}
	}
	meta := metaFor(inner.Name(), g, subscriptions, []Config{opts.Config})
	if err := meta.applyTopology(opts.Topology); err != nil {
		return nil, err
	}
	return &MultiUserService{inner: inner, meta: meta}, nil
}

func int32Slices(s [][]AuthorID) [][]int32 { return s }

// Offer routes one post through every affected user's diversification state
// and returns the ids of the users whose timelines receive it (sorted).
// Posts must arrive in non-decreasing time order. The returned slice is the
// caller's to keep: the service copies it out of the solver's internal
// scratch buffer at this boundary.
func (m *MultiUserService) Offer(p Post) []UserID {
	return slices.Clone(m.inner.Offer(core.NewPost(p.ID, p.Author, p.Time.UnixMilli(), p.Text)))
}

// Algorithm returns the name of the backing algorithm (e.g. "S_UniBin").
func (m *MultiUserService) Algorithm() string { return m.inner.Name() }

// SharedComponents returns the number of distinct diversification states the
// service maintains — the shared connected components of Section 5. It
// returns 0 for the Independent (M_*) and per-user-custom variants, which
// keep one state per user instead.
func (m *MultiUserService) SharedComponents() int {
	if s, ok := m.solver().(*core.SharedMultiUser); ok {
		return s.NumComponents()
	}
	return 0
}

// solver unwraps the adaptive controller, if present, to the decision solver.
func (m *MultiUserService) solver() core.MultiDiversifier {
	if a, ok := m.inner.(*core.AdaptiveMultiUser); ok {
		return a.Inner()
	}
	return m.inner
}

// AdaptiveStates returns every touched user's controller state, sorted by
// user id, or nil when the service was built without ServiceOptions.Adaptive.
// Users the stream never delivered to are absent (their effective thresholds
// are the baseline Config).
func (m *MultiUserService) AdaptiveStates() []AdaptiveUserState {
	if a, ok := m.inner.(*core.AdaptiveMultiUser); ok {
		return publicAdaptiveStates(a.UserStates())
	}
	return nil
}

// Suppressed returns the total number of deliveries the adaptive controller
// withheld; 0 for a non-adaptive service.
func (m *MultiUserService) Suppressed() uint64 {
	if a, ok := m.inner.(*core.AdaptiveMultiUser); ok {
		return a.Suppressed()
	}
	return 0
}

// Stats snapshots the merged cost counters across all internal instances.
func (m *MultiUserService) Stats() Stats { return statsOf(m.inner.Counters()) }

func statsOf(c *metrics.Counters) Stats {
	return Stats{
		Comparisons:     c.Comparisons,
		Insertions:      c.Insertions,
		Evictions:       c.Evictions,
		Accepted:        c.Accepted,
		Rejected:        c.Rejected,
		PeakCopies:      c.StoredPeak,
		EstRAMBytes:     c.EstimateRAMBytes(core.StoredCopyBytes),
		DecisionLatency: latencySummaryOf(c.Decisions),
	}
}

// ContentDistance returns the SimHash Hamming distance between two texts
// under the paper's normalization — the content measure behind LambdaC,
// exposed so applications can calibrate thresholds on their own data.
func ContentDistance(textA, textB string) int {
	return simhash.Distance(core.Fingerprint(textA), core.Fingerprint(textB))
}

// ContentSimilarityCosine returns the term-frequency cosine similarity of
// two normalized texts — the slower baseline SimHash approximates (paper
// Section 3).
func ContentSimilarityCosine(textA, textB string) float64 {
	return cosine.TextSimilarity(textnorm.NormalizedTokens(textA), textnorm.NormalizedTokens(textB))
}
