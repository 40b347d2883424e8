package core

import (
	"fmt"
	"runtime"
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

// newRoutedDiversifier builds the per-user instances of the M_* and Custom_M
// layouts from thresholds the constructor has already validated. Unlike
// NewDiversifier it may consult the global graph for UniBin's author test:
// the routing table only ever offers an instance posts authored within its
// subscription set, and for two authors inside that set global adjacency
// coincides with induced adjacency. This keeps the hot author check a pure
// binary search (S_UniBin's rings rely on the same fact). NeighborBin still
// needs the induced view (its insertion fan-out must not leak outside the
// set) and CliqueBin's cover is computed on the induced subgraph anyway.
func newRoutedDiversifier(alg Algorithm, g *authorsim.Graph, authors []int32, th Thresholds) (Diversifier, error) {
	if alg == AlgUniBin {
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

// SharedMultiUser is the multi-user solver of Section 5. It runs a set of
// SPSD instances; an instance is an author set, the diversifier deciding the
// posts of those authors and the users whose timelines it feeds. A post is
// offered to every instance containing its author, and each accepting
// instance delivers it to all of its users. Three constructors lay the
// instances out:
//
//   - NewSharedMultiUser (S_*): users whose subscription subgraphs Gi share
//     an identical connected component share one instance for it. A
//     component is identified by its author set — components are induced
//     subgraphs of the global G, so an identical author set implies an
//     identical subgraph, which is the paper's strict condition for reuse.
//     Posts from authors outside every similarity relation still flow
//     through their (singleton) components.
//   - NewMultiUser (M_*): one instance per user over the user's whole
//     subscription set, no computation shared — the paper's baselines.
//   - NewCustomMultiUser (Custom_M): the M_* layout with each instance built
//     at its user's own λc and λt.
//
// S_UniBin shares further, at post granularity: its instances keep no bins
// of their own but one window ring per connected component of the global G,
// which stores each emitted post once with the ids of the instances that
// emitted it (see sharedring.go). Decisions are those of one UniBin per
// instance, bit for bit. Its Accepted and Rejected count instance decisions,
// as in every other layout; Comparisons, Insertions, Evictions and the
// stored-copy counts are physical ring counts — window entries visited,
// posts stored, posts evicted and resident posts, once per ring rather than
// once per instance — and StoredPeak sums the rings' individual peaks.
//
// The per-component decision independence the S_* layout exploits for
// sharing is also what makes the engine partitionable: internal/stream
// spreads components across goroutines and internal/shard spreads them
// across processes, both relying on the fact that a component's decision
// sequence never observes posts from outside the component.
type SharedMultiUser struct {
	name          string
	alg           Algorithm
	comps         []instance // in construction order
	authorToComps [][]int32  // ascending instance indices, dense by author id
	scratch       []int32    // Offer's reusable delivery buffer (aliasing contract)
	// perUser marks the M_* and Custom_M layouts: instance u feeds user u
	// alone, so the routing lists are ascending user ids.
	perUser bool

	// S_UniBin only (ring is set): the thresholds, the global graph (swapped
	// by SetGraph), the rings, the author → ring table (-1 for authors no
	// instance contains), the epoch stamps of the decision in progress (per
	// instance and per author), Offer's reusable encoded emitter list, and
	// the counters (stored-copy counts kept apart: live posts and summed
	// ring peaks).
	ring       bool
	th         Thresholds
	g          *authorsim.Graph
	rings      []sharedRing
	authorRing []int32
	stamp      []uint32
	similar    []uint32
	epoch      uint32
	emitList   []byte
	c          metrics.Counters
	live, peak int64
}

// instance is one SPSD instance of a layout: an S_* component or an M_* /
// Custom_M user's subscription set.
type instance struct {
	authors []int32     // sorted
	div     Diversifier // nil under S_UniBin, whose instances live in rings
	users   []int32     // sorted
}

// newSolver checks the parameters every layout shares — the algorithm, the
// given thresholds and the subscribed author ids — before any instance is
// built, so a bad parameter fails even where no instance would be (a user
// without subscriptions, no users at all). It returns a solver without
// instances.
func newSolver(name string, alg Algorithm, g *authorsim.Graph, subscriptions [][]int32, ths ...Thresholds) (*SharedMultiUser, error) {
	if alg < AlgUniBin || alg > AlgCliqueBin {
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
	for _, th := range ths {
		if err := th.Validate(); err != nil {
			return nil, err
		}
	}
	if err := validateSubscriptions(g, subscriptions); err != nil {
		return nil, err
	}
	return &SharedMultiUser{name: name, alg: alg, authorToComps: make([][]int32, g.NumAuthors())}, nil
}

// RestrictSubscriptions returns each user's subscriptions that keep accepts,
// in order: the subscription map of a solver that decides only some
// authors' posts (one of the parallel engine's workers, one shard worker of
// a fleet). For those authors it decides as a solver over the whole map
// does, as long as keep accepts each component of G(λa) whole or not at all.
func RestrictSubscriptions(subscriptions [][]int32, keep func(author int32) bool) [][]int32 {
	out := make([][]int32, len(subscriptions))
	for u, subs := range subscriptions {
		for _, a := range subs {
			if keep(a) {
				out[u] = append(out[u], a)
			}
		}
	}
	return out
}

// NewSharedMultiUser builds the S_* solver from per-user subscriptions.
// Author ids outside g are rejected with an error.
//
// Each user's components are found on GOMAXPROCS goroutines, usersChunk
// users at a time, and merged into the instance table in user order as the
// chunks finish (authorsim.ParallelChunks), so instance numbering — which
// fixes the snapshot layout — is that of a sequential build over users
// 0, 1, … The table is keyed by a 64-bit hash of a component's sorted ids,
// slices.Equal resolving collisions.
func NewSharedMultiUser(alg Algorithm, g *authorsim.Graph, subscriptions [][]int32, th Thresholds) (*SharedMultiUser, error) {
	return NewSharedMultiUserOn(runtime.GOMAXPROCS(0), alg, g, subscriptions, th)
}

// NewSharedMultiUserOn is NewSharedMultiUser finding components on at most
// procs goroutines, for a caller that runs several builds at once and splits
// GOMAXPROCS between them. The solver does not depend on procs.
func NewSharedMultiUserOn(procs int, alg Algorithm, g *authorsim.Graph, subscriptions [][]int32, th Thresholds) (*SharedMultiUser, error) {
	return newSharedMultiUser(procs, alg, g, subscriptions, th, hashComponent)
}

// newSharedMultiUser is NewSharedMultiUserOn with the component hash as a
// parameter, so a test can make every key collide.
func newSharedMultiUser(procs int, alg Algorithm, g *authorsim.Graph, subscriptions [][]int32, th Thresholds, hash func([]int32) uint64) (*SharedMultiUser, error) {
	s, err := newSolver("S_"+alg.String(), alg, g, subscriptions, th)
	if err != nil {
		return nil, err
	}
	found := make([]foundComponents, (len(subscriptions)+usersChunk-1)/usersChunk)
	byHash := make(map[uint64]int32) // hash → the newest instance with it
	var older []int32                // instance → the previous one with its hash, or -1
	authorsim.ParallelChunks(procs, len(subscriptions), usersChunk, func(int) func(c, lo, hi int) {
		return func(c, lo, hi int) {
			f := foundComponents{comps: make([][][]int32, hi-lo)}
			n := 0 // a component has at least one author
			for _, subs := range subscriptions[lo:hi] {
				n += len(subs)
			}
			f.hashes = make([]uint64, 0, n)
			for u := lo; u < hi; u++ {
				f.comps[u-lo] = g.InducedComponents(subscriptions[u])
				for _, comp := range f.comps[u-lo] {
					f.hashes = append(f.hashes, hash(comp))
				}
			}
			found[c] = f
		}
	}, func(c int) {
		hashes := found[c].hashes
		for i, comps := range found[c].comps {
			for _, comp := range comps {
				h := hashes[0]
				hashes = hashes[1:]
				idx, seen := byHash[h]
				if !seen {
					idx = -1
				}
				newest := idx
				for idx >= 0 && !slices.Equal(s.comps[idx].authors, comp) {
					idx = older[idx]
				}
				if idx < 0 {
					idx = int32(len(s.comps))
					older = append(older, newest)
					byHash[h] = idx
					s.comps = append(s.comps, instance{authors: comp})
				}
				s.comps[idx].users = append(s.comps[idx].users, int32(c*usersChunk+i))
			}
		}
		found[c] = foundComponents{}
	})
	s.routeAuthors()
	if alg == AlgUniBin {
		s.ring, s.th, s.g = true, th, g
		s.buildRings()
		return s, nil
	}
	for i := range s.comps {
		if s.comps[i].div, err = NewDiversifier(alg, g, s.comps[i].authors, th); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// usersChunk is the number of users a NewSharedMultiUser goroutine takes per
// claim. At most one finished chunk per goroutine waits to be merged, so a
// small chunk keeps boot's extra components few.
const usersChunk = 32

// foundComponents is one chunk of users' components, as found before the
// merge into the instance table: each user's InducedComponents, and the
// hash of every component in that order.
type foundComponents struct {
	comps  [][][]int32
	hashes []uint64
}

// hashComponent hashes a component's sorted author ids: FNV-1a over their
// 32-bit values.
func hashComponent(comp []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, a := range comp {
		h = (h ^ uint64(uint32(a))) * 1099511628211
	}
	return h
}

// NewMultiUser builds the M_* solver: one instance per user. subscriptions[u]
// lists the authors user u follows; authors must be node ids of g — unknown
// or negative ids are rejected with an error.
func NewMultiUser(alg Algorithm, g *authorsim.Graph, subscriptions [][]int32, th Thresholds) (*SharedMultiUser, error) {
	s, err := newSolver("M_"+alg.String(), alg, g, subscriptions, th)
	if err != nil {
		return nil, err
	}
	if err := s.layPerUser(g, subscriptions, func(int) Thresholds { return th }); err != nil {
		return nil, err
	}
	return s, nil
}

// NewCustomMultiUser builds the Custom_M solver: per-user diversity
// thresholds, the capability Section 2 notes is easy in client-side SPSD ("we
// can easily support user customized diversity thresholds") but is lost by
// the S_* layout, which requires identical thresholds to reuse state. It is
// the M_* layout with user u's instance built at thresholds[u]; users who
// share both a component and thresholds could in principle still share
// state, but stay independent — the paper's stated trade-off for
// customization.
//
// The author threshold λa is common to the service: it is baked into the
// precomputed author similarity graph, and maintaining one graph per user
// would defeat the offline-precomputation design of Section 3. So every
// thresholds entry must carry the same λa.
func NewCustomMultiUser(alg Algorithm, g *authorsim.Graph, subscriptions [][]int32, thresholds []Thresholds) (*SharedMultiUser, error) {
	if len(subscriptions) != len(thresholds) {
		return nil, fmt.Errorf("core: %d subscription lists but %d thresholds",
			len(subscriptions), len(thresholds))
	}
	for u, th := range thresholds {
		if la := thresholds[0].LambdaA; th.LambdaA != la {
			return nil, fmt.Errorf(
				"core: user %d has LambdaA %v but the shared author graph encodes %v; "+
					"per-user LambdaA requires per-user graphs", u, th.LambdaA, la)
		}
		if err := th.Validate(); err != nil {
			return nil, fmt.Errorf("user %d: %w", u, err)
		}
	}
	s, err := newSolver("Custom_M", alg, g, subscriptions)
	if err != nil {
		return nil, err
	}
	if err := s.layPerUser(g, subscriptions, func(u int) Thresholds { return thresholds[u] }); err != nil {
		return nil, err
	}
	return s, nil
}

// layPerUser lays out the M_* and Custom_M instances: user u's instance is
// built over its subscriptions at thresholds th(u), routes the deduplicated
// subscriptions and feeds user u alone.
func (s *SharedMultiUser) layPerUser(g *authorsim.Graph, subscriptions [][]int32, th func(u int) Thresholds) error {
	s.perUser = true
	s.comps = make([]instance, len(subscriptions))
	for u, subs := range subscriptions {
		div, err := newRoutedDiversifier(s.alg, g, subs, th(u))
		if err != nil {
			return err
		}
		authors := slices.Clone(subs)
		slices.Sort(authors)
		authors = slices.Compact(authors)
		s.comps[u] = instance{authors: authors, div: div, users: []int32{int32(u)}}
	}
	s.routeAuthors()
	return nil
}

// routeAuthors fills authorToComps from the instances' author sets: author
// a's list is the ascending indices of the instances containing it. The
// lists are cut from one exactly sized array.
func (s *SharedMultiUser) routeAuthors() {
	// Count each author's instances, then turn the counts into offsets:
	// a's list will be flat[off[a]:off[a+1]].
	off := make([]int32, len(s.authorToComps)+1)
	for _, inst := range s.comps {
		for _, a := range inst.authors {
			off[a+1]++
		}
	}
	for a := 1; a < len(off); a++ {
		off[a] += off[a-1]
	}
	// Filling in instance order advances off[a] to the end of a's list.
	flat := make([]int32, off[len(off)-1])
	for i, inst := range s.comps {
		for _, a := range inst.authors {
			flat[off[a]] = int32(i)
			off[a]++
		}
	}
	start := int32(0)
	for a := range s.authorToComps {
		s.authorToComps[a] = flat[start:off[a]:off[a]]
		start = off[a]
	}
}

// Name implements MultiDiversifier: M_<alg>, S_<alg> or Custom_M.
func (s *SharedMultiUser) Name() string { return s.name }

// NumComponents returns the number of distinct shared components the S_*
// layout decides with — its number of SPSD instances. The per-user layouts
// share no component and return 0.
func (s *SharedMultiUser) NumComponents() int {
	if s.perUser {
		return 0
	}
	return len(s.comps)
}

// Offer implements MultiDiversifier. Every instance containing the post's
// author decides once; on acceptance the post is delivered to every user of
// that instance. A user sees the author in at most one of its own instances,
// so the user sets touched here are disjoint and the result needs only
// sorting, not deduplication. Posts from authors outside the graph —
// including negative ids, which arrive from unvalidated ingest boundaries —
// are delivered to no one.
func (s *SharedMultiUser) Offer(p *Post) []int32 {
	if p.Author < 0 || int(p.Author) >= len(s.authorToComps) {
		return nil
	}
	if s.ring {
		return s.offerRing(p)
	}
	delivered := s.scratch[:0]
	contributing := 0
	for _, ci := range s.authorToComps[p.Author] {
		inst := &s.comps[ci]
		if inst.div.Offer(p) {
			delivered = append(delivered, inst.users...)
			contributing++
		}
	}
	// Every instance's user list is sorted, so a single contributing
	// instance needs no sort; nor do the per-user layouts, whose instances
	// are routed in ascending user order.
	if contributing > 1 && !s.perUser {
		slices.Sort(delivered)
	}
	s.scratch = delivered
	if len(delivered) == 0 {
		return nil
	}
	return delivered
}

// SetGraph swaps the author graph consulted by UniBin's author test, the
// multi-user face of the paper's periodic similarity recomputation. Only
// AlgUniBin supports it: UniBin's time-ordered bins are graph-independent,
// while NeighborBin and CliqueBin bake the old graph into their bin layout
// and need a rebuilt solver. The refreshed graph must keep the author-id
// universe: the routing tables are dense arrays indexed by author id, and a
// resized graph would silently drop new authors' posts (or index out of
// bounds inside the author test), so a size change is an error, not a remap.
// The instances — and S_UniBin's rings holding them — deliberately stay as
// built: subscriptions are user intent, not graph structure, and the paper's
// maintenance story recomputes shared components with the periodic graph
// rebuild, not per edge flip. A refreshed graph only changes which stored
// posts count as author-similar from the next Offer on. Not safe to call
// concurrently with Offer; serialize via the stream engine's Swap.
func (s *SharedMultiUser) SetGraph(g *authorsim.Graph) error {
	if s.alg != AlgUniBin {
		return fmt.Errorf("core: %s cannot refresh the author graph in place: %s bin layouts bake the old graph; rebuild the solver",
			s.Name(), s.alg)
	}
	if n := g.NumAuthors(); n != len(s.authorToComps) {
		return fmt.Errorf("core: refreshed graph has %d authors but %s routes %d; author ids are dense indexes, so a resized graph requires a rebuilt solver",
			n, s.Name(), len(s.authorToComps))
	}
	if s.ring {
		s.g = g
		return nil
	}
	for _, inst := range s.comps {
		inst.div.(*UniBin).SetGraph(g)
	}
	return nil
}

// Counters implements MultiDiversifier.
func (s *SharedMultiUser) Counters() *metrics.Counters {
	var total metrics.Counters
	if s.ring {
		total = s.c
		total.SetStored(s.live, s.peak)
		return &total
	}
	for _, inst := range s.comps {
		total.Merge(*inst.div.Counters())
	}
	return &total
}
