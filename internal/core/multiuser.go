package core

import (
	"fmt"
	"slices"

	"firehose/internal/authorsim"
	"firehose/internal/metrics"
)

// Algorithm selects which SPSD algorithm backs a (multi-user) diversifier.
type Algorithm int

const (
	// AlgUniBin is the single-bin algorithm of Section 4.1.
	AlgUniBin Algorithm = iota
	// AlgNeighborBin is the per-author-bin algorithm of Section 4.2.
	AlgNeighborBin
	// AlgCliqueBin is the per-clique-bin algorithm of Section 4.3.
	AlgCliqueBin
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgUniBin:
		return "UniBin"
	case AlgNeighborBin:
		return "NeighborBin"
	case AlgCliqueBin:
		return "CliqueBin"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// NewDiversifier builds a single-user SPSD diversifier running algorithm alg
// over the subgraph of g induced by the subscribed authors (the user's Gi).
func NewDiversifier(alg Algorithm, g *authorsim.Graph, authors []int32, th Thresholds) (Diversifier, error) {
	if err := th.Validate(); err != nil {
		return nil, err
	}
	switch alg {
	case AlgUniBin:
		return NewUniBin(g.Induced(authors), th), nil
	case AlgNeighborBin:
		return NewNeighborBin(g.Induced(authors), th), nil
	case AlgCliqueBin:
		return NewCliqueBin(authorsim.GreedyCliqueCover(g, authors), th), nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
}

// newRoutedDiversifier builds the per-user instances of the M_* and custom
// multi-user solvers. Unlike NewDiversifier it may consult the global graph
// for UniBin's author test: the multi-user routing layer only ever offers an
// instance posts authored within its subscription set, and for two authors
// inside that set global adjacency coincides with induced adjacency. This
// keeps the hot author check a pure binary search (S_UniBin's rings rely on
// the same fact). NeighborBin still needs the induced view (its insertion
// fan-out must not leak outside the set) and CliqueBin's cover is computed
// on the induced subgraph anyway.
func newRoutedDiversifier(alg Algorithm, g *authorsim.Graph, authors []int32, th Thresholds) (Diversifier, error) {
	if alg == AlgUniBin {
		if err := th.Validate(); err != nil {
			return nil, err
		}
		return NewUniBin(g, th), nil
	}
	return NewDiversifier(alg, g, authors, th)
}

// MultiDiversifier solves M-SPSD (Problem 2): one post stream, many users
// with author subscriptions. Offer routes an arriving post to every
// subscribed user's diversification state and returns the sorted ids of the
// users whose timeline receives the post.
//
// Aliasing contract: the slice Offer returns is backed by per-instance
// scratch storage and is valid only until the next Offer call on the same
// instance — the hot path would otherwise pay one heap allocation per
// delivered post. Callers that retain deliveries past the next decision
// (tickets, timelines, HTTP responses) must copy; the stream engines do this
// at their boundaries.
type MultiDiversifier interface {
	Offer(p *Post) []int32
	// Counters returns a merged snapshot of the cost counters across all
	// internal diversifier instances.
	Counters() *metrics.Counters
	Name() string
}

// validateSubscriptions rejects author ids outside g before any routing
// table or diversifier is built, so a bad subscription surfaces as a
// descriptive error instead of an index panic mid-construction.
func validateSubscriptions(g *authorsim.Graph, subscriptions [][]int32) error {
	n := g.NumAuthors()
	for u, subs := range subscriptions {
		for _, a := range subs {
			if a < 0 || int(a) >= n {
				return fmt.Errorf("core: user %d subscribes to author %d outside graph range [0,%d)", u, a, n)
			}
		}
	}
	return nil
}

// MultiUser is the baseline M_* family: one independent SPSD instance per
// user, no computation shared (Section 5's M_UniBin / M_NeighborBin /
// M_CliqueBin).
type MultiUser struct {
	alg           Algorithm
	divs          []Diversifier // one per user
	authorToUsers [][]int32     // dense, indexed by author id
	scratch       []int32       // Offer's reusable delivery buffer (aliasing contract)
}

// NewMultiUser builds the M_* solver. subscriptions[u] lists the authors
// user u follows; authors must be node ids of g — unknown or negative ids
// are rejected with an error.
func NewMultiUser(alg Algorithm, g *authorsim.Graph, subscriptions [][]int32, th Thresholds) (*MultiUser, error) {
	if err := validateSubscriptions(g, subscriptions); err != nil {
		return nil, err
	}
	m := &MultiUser{
		alg:           alg,
		divs:          make([]Diversifier, len(subscriptions)),
		authorToUsers: make([][]int32, g.NumAuthors()),
	}
	for u, subs := range subscriptions {
		d, err := newRoutedDiversifier(alg, g, subs, th)
		if err != nil {
			return nil, err
		}
		m.divs[u] = d
		seen := make(map[int32]bool, len(subs))
		for _, a := range subs {
			if !seen[a] {
				seen[a] = true
				m.authorToUsers[a] = append(m.authorToUsers[a], int32(u))
			}
		}
	}
	// Users were appended in increasing order, so the routing lists are
	// already sorted; delivery order is deterministic.
	return m, nil
}

// Name implements MultiDiversifier.
func (m *MultiUser) Name() string { return "M_" + m.alg.String() }

// Offer implements MultiDiversifier. Posts from authors outside the graph —
// including negative ids, which arrive from unvalidated ingest boundaries —
// are delivered to no one. The returned slice follows the interface's
// aliasing contract: valid until the next Offer.
func (m *MultiUser) Offer(p *Post) []int32 {
	if p.Author < 0 || int(p.Author) >= len(m.authorToUsers) {
		return nil
	}
	delivered := m.scratch[:0]
	for _, u := range m.authorToUsers[p.Author] {
		if m.divs[u].Offer(p) {
			delivered = append(delivered, u)
		}
	}
	m.scratch = delivered
	if len(delivered) == 0 {
		return nil
	}
	return delivered
}

// SetGraph swaps the author graph consulted by every per-user instance, the
// multi-user face of the paper's periodic similarity recomputation. Only
// AlgUniBin supports it: UniBin's single time-ordered bin is
// graph-independent, while NeighborBin and CliqueBin bake the old graph into
// their bin layout and need a rebuilt solver. The refreshed graph must keep
// the author-id universe: the routing tables are dense arrays indexed by
// author id, and a resized graph would silently drop new authors' posts (or
// index out of bounds inside the author test), so a size change is an error,
// not a remap. The per-user subscription routing deliberately stays as
// built — subscriptions are user intent, not graph structure. Not safe to
// call concurrently with Offer; serialize via the stream engine's Swap.
func (m *MultiUser) SetGraph(g *authorsim.Graph) error {
	if m.alg != AlgUniBin {
		return fmt.Errorf("core: %s cannot refresh the author graph in place: %s bin layouts bake the old graph; rebuild the solver",
			m.Name(), m.alg)
	}
	if n := g.NumAuthors(); n != len(m.authorToUsers) {
		return fmt.Errorf("core: refreshed graph has %d authors but %s routes %d; author ids are dense indexes, so a resized graph requires a rebuilt solver",
			n, m.Name(), len(m.authorToUsers))
	}
	for _, d := range m.divs {
		d.(*UniBin).SetGraph(g)
	}
	return nil
}

// Counters implements MultiDiversifier.
func (m *MultiUser) Counters() *metrics.Counters {
	var total metrics.Counters
	for _, d := range m.divs {
		if d != nil {
			total.Merge(*d.Counters())
		}
	}
	return &total
}

// UserCounters returns the counters of one user's instance (for tests and
// per-user reporting).
func (m *MultiUser) UserCounters(user int32) *metrics.Counters {
	return m.divs[user].Counters()
}

// SharedMultiUser is the optimized S_* family of Section 5: users whose
// subscription subgraphs Gi share an identical connected component share one
// SPSD instance for that component. A component is identified by its author
// set — components are induced subgraphs of the global G, so an identical
// author set implies an identical subgraph, which is the paper's strict
// condition for reuse. Posts from authors outside every similarity relation
// still flow through their (singleton) components.
//
// S_NeighborBin and S_CliqueBin keep one bin-set per instance. S_UniBin
// shares further, at post granularity: its instances keep no bins of their
// own but one window ring per connected component of the global G, which
// stores each emitted post once with the ids of the instances that emitted
// it (see sharedring.go). Decisions are those of one UniBin per instance,
// bit for bit. Its Accepted and Rejected count instance decisions, as for
// the other two algorithms; Comparisons, Insertions, Evictions and the
// stored-copy counts are physical ring counts — window entries visited,
// posts stored, posts evicted and resident posts, once per ring rather than
// once per instance — and StoredPeak sums the rings' individual peaks.
//
// The per-component decision independence this type exploits for sharing is
// also what makes the engine partitionable: internal/stream spreads
// components across goroutines and internal/shard spreads them across
// processes, both relying on the fact that a component's decision sequence
// never observes posts from outside the component.
type SharedMultiUser struct {
	alg           Algorithm
	comps         []*sharedComponent
	authorToComps [][]int32 // ascending instance indices, dense by author id
	scratch       []int32   // Offer's reusable delivery buffer (aliasing contract)

	// AlgUniBin only: the global graph (swapped by SetGraph), the rings,
	// the author → ring table (-1 for authors no instance contains), the
	// epoch stamps of the decision in progress (per instance and per
	// author), and the counters (stored-copy counts kept apart: live posts
	// and summed ring peaks).
	th         Thresholds
	g          *authorsim.Graph
	rings      []sharedRing
	authorRing []int32
	stamp      []uint32
	similar    []uint32
	epoch      uint32
	c          metrics.Counters
	live, peak int64
}

type sharedComponent struct {
	authors []int32
	div     Diversifier // nil under AlgUniBin, whose instances live in rings
	users   []int32     // subscribers of exactly this component, sorted
}

// NewSharedMultiUser builds the S_* solver from per-user subscriptions.
// Author ids outside g are rejected with an error.
func NewSharedMultiUser(alg Algorithm, g *authorsim.Graph, subscriptions [][]int32, th Thresholds) (*SharedMultiUser, error) {
	if err := validateSubscriptions(g, subscriptions); err != nil {
		return nil, err
	}
	s := &SharedMultiUser{
		alg:           alg,
		authorToComps: make([][]int32, g.NumAuthors()),
	}
	if alg == AlgUniBin {
		if err := th.Validate(); err != nil {
			return nil, err
		}
		s.th, s.g = th, g
	}
	byKey := make(map[string]int32)
	for u, subs := range subscriptions {
		for _, comp := range g.InducedComponents(subs) {
			key := authorsim.ComponentKey(comp)
			idx, ok := byKey[key]
			if !ok {
				var div Diversifier
				if alg != AlgUniBin {
					d, err := NewDiversifier(alg, g, comp, th)
					if err != nil {
						return nil, err
					}
					div = d
				}
				idx = int32(len(s.comps))
				byKey[key] = idx
				s.comps = append(s.comps, &sharedComponent{authors: comp, div: div})
				for _, a := range comp {
					s.authorToComps[a] = append(s.authorToComps[a], idx)
				}
			}
			s.comps[idx].users = append(s.comps[idx].users, int32(u))
		}
	}
	if alg == AlgUniBin {
		s.buildRings()
	}
	return s, nil
}

// Name implements MultiDiversifier.
func (s *SharedMultiUser) Name() string { return "S_" + s.alg.String() }

// NumComponents returns the number of distinct shared components — the
// number of SPSD instances deciding.
func (s *SharedMultiUser) NumComponents() int { return len(s.comps) }

// Offer implements MultiDiversifier. Each distinct component containing the
// post's author decides once; on acceptance the post is delivered to every
// user subscribed to that component. A user sees the author in at most one
// of its own components, so the per-component user sets touched here are
// disjoint and the result needs only sorting, not deduplication.
func (s *SharedMultiUser) Offer(p *Post) []int32 {
	if p.Author < 0 || int(p.Author) >= len(s.authorToComps) {
		return nil
	}
	if s.alg == AlgUniBin {
		return s.offerRing(p)
	}
	delivered := s.scratch[:0]
	contributing := 0
	for _, ci := range s.authorToComps[p.Author] {
		comp := s.comps[ci]
		if comp.div.Offer(p) {
			delivered = append(delivered, comp.users...)
			contributing++
		}
	}
	// Per-component user lists are built in increasing user order, so a
	// single contributing component is already sorted; only a multi-component
	// delivery needs the sort.
	if contributing > 1 {
		slices.Sort(delivered)
	}
	s.scratch = delivered
	if len(delivered) == 0 {
		return nil
	}
	return delivered
}

// SetGraph swaps the author graph consulted by S_UniBin's coverage test; see
// MultiUser.SetGraph for the AlgUniBin-only and same-size contracts. The
// component partition — instances and the rings holding them — deliberately
// stays as built: instances are identified by author set at construction,
// and the paper's maintenance story recomputes them with the periodic graph
// rebuild, not per edge flip — a refreshed graph only changes which stored
// posts count as author-similar from the next Offer on.
func (s *SharedMultiUser) SetGraph(g *authorsim.Graph) error {
	if s.alg != AlgUniBin {
		return fmt.Errorf("core: %s cannot refresh the author graph in place: %s bin layouts bake the old graph; rebuild the solver",
			s.Name(), s.alg)
	}
	if n := g.NumAuthors(); n != len(s.authorToComps) {
		return fmt.Errorf("core: refreshed graph has %d authors but %s routes %d; author ids are dense indexes, so a resized graph requires a rebuilt solver",
			n, s.Name(), len(s.authorToComps))
	}
	s.g = g
	return nil
}

// Counters implements MultiDiversifier.
func (s *SharedMultiUser) Counters() *metrics.Counters {
	var total metrics.Counters
	if s.alg == AlgUniBin {
		total = s.c
		total.SetStored(s.live, s.peak)
		return &total
	}
	for _, comp := range s.comps {
		total.Merge(*comp.div.Counters())
	}
	return &total
}
