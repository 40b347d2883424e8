// Package shard implements horizontal, author-partitioned sharding of the
// multi-user diversification service (ROADMAP item 3).
//
// The partition exploits the same independence the parallel engine uses at
// goroutine scale (paper §5): two posts can only cover each other when their
// authors are similar, i.e. connected in the author-similarity graph G(λa) —
// so posts whose authors live in different connected components never
// interact, for any user. Assigning every component to exactly one shard and
// routing each post to its author's shard therefore yields bit-identical
// per-post decisions to a single node, as long as every shard runs the full
// engine configuration (whole graph, whole subscription map, same
// thresholds): a user subscribed across shards simply has each component of
// their subscription decided on the shard that owns it.
//
// The package provides three pieces:
//
//   - Plan/Coordinator: the deterministic component → shard assignment,
//     computed identically by every process from the shared engine config,
//     plus the clique cover and per-shard slices (the coordinator owns the
//     social graph, like the coordinator/worker split in Gao et al.).
//   - Worker (NewWorker): wraps an httpapi.Server with the shard-local
//     ingest/checkpoint/restore endpoints a router drives.
//   - Router (NewRouter): an httpapi.Engine that fans ingest out to the
//     workers over the connector-style transport and merges deliveries back
//     in global id order.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"firehose/internal/authorsim"
)

// Topology identifies one node's place in a sharded deployment: which shard
// it is, how many shards exist, and the digest of the assignment every
// participant must agree on. A router uses Shard = -1.
type Topology struct {
	// Shard is this node's shard index in [0, Shards), or -1 for the router.
	Shard int
	// Shards is the total shard count.
	Shards int
	// Digest fingerprints the component → shard assignment (and the graph it
	// was derived from); see Assignment.Digest.
	Digest uint64
}

// Assignment is the author-partitioned routing table: every connected
// component of the author-similarity graph is owned by exactly one shard,
// and a post routes to the shard owning its author's component. Assignments
// are deterministic — every process that computes one over the same graph
// and shard count gets byte-identical routing and the same digest.
type Assignment struct {
	shards    int
	owner     []int32   // author → owning shard
	comps     [][]int32 // canonical components (authorsim.Graph.Components, shared)
	compShard []int32   // component index → owning shard
	digest    uint64
}

// Plan computes the assignment of g's components onto shards. Components are
// placed largest-first onto the least-loaded shard (by author count, ties to
// the lowest shard index), which is deterministic because Graph.Components
// returns a canonical ordering. Reusing that canonical component machinery —
// the same dedup backbone the S_* algorithms use — means the routing unit is
// exactly the decision-independence unit.
func Plan(g *authorsim.Graph, shards int) (*Assignment, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: nil author graph")
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count must be at least 1, got %d", shards)
	}
	n := g.NumAuthors()
	comps := g.Components()

	// Largest components first; SliceStable keeps the canonical
	// smallest-member order among equal sizes.
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return len(comps[order[i]]) > len(comps[order[j]])
	})

	a := &Assignment{
		shards:    shards,
		owner:     make([]int32, n),
		comps:     comps,
		compShard: make([]int32, len(comps)),
	}
	load := make([]int, shards)
	for _, ci := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		a.compShard[ci] = int32(best)
		load[best] += len(comps[ci])
		for _, author := range comps[ci] {
			a.owner[author] = int32(best)
		}
	}

	h := fnv.New64a()
	w64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	w64(uint64(shards))
	w64(uint64(n))
	w64(uint64(g.NumEdges()))
	w64(uint64(int64(g.LambdaA() * 1e9)))
	for _, s := range a.owner {
		w64(uint64(s))
	}
	a.digest = h.Sum64()
	return a, nil
}

// NumShards returns the shard count the assignment was planned for.
func (a *Assignment) NumShards() int { return a.shards }

// NumAuthors returns the size of the author universe.
func (a *Assignment) NumAuthors() int { return len(a.owner) }

// ShardOf returns the shard owning the author's component. Authors outside
// the planned universe route to shard 0 and are rejected by the worker's
// engine, exactly as a single node rejects them.
func (a *Assignment) ShardOf(author int32) int {
	if author < 0 || int(author) >= len(a.owner) {
		return 0
	}
	return int(a.owner[author])
}

// Digest fingerprints the assignment: FNV-1a over the shard count, the graph
// shape (author count, edge count, λa) and the full author → shard vector.
// Router and workers each compute it from their own config; a mismatch means
// the processes were started over different graphs or shard counts, and
// every cross-process message carries it so the disagreement is refused at
// the first request, not discovered as silently divergent decisions.
func (a *Assignment) Digest() uint64 { return a.digest }

// Components returns the canonical components of the planned graph. The
// slice is shared; callers must not mutate it.
func (a *Assignment) Components() [][]int32 { return a.comps }

// ShardOfComponent returns the shard owning component ci.
func (a *Assignment) ShardOfComponent(ci int) int { return int(a.compShard[ci]) }

// Slice is the per-shard view of an assignment: the authors and components
// one shard owns, with the clique cover restricted to them when the
// coordinator carries one.
type Slice struct {
	// Shard is the slice's shard index.
	Shard int
	// Authors are the authors whose posts route to this shard, ascending.
	Authors []int32
	// Components are the owned components, in canonical order.
	Components [][]int32
	// Cliques is the clique cover restricted to the owned authors; nil when
	// the coordinator was built without a cover.
	Cliques [][]int32
}

// Coordinator owns the shared state a sharded deployment distributes: the
// author-similarity graph, its greedy clique cover, and the assignment. It
// serves per-shard slices; routers additionally use the assignment directly
// for per-post routing.
type Coordinator struct {
	graph  *authorsim.Graph
	cover  *authorsim.CliqueCover
	assign *Assignment
}

// NewCoordinator plans an assignment over g and computes the clique cover
// (the CliqueBin metadata workers would otherwise each recompute).
func NewCoordinator(g *authorsim.Graph, shards int) (*Coordinator, error) {
	a, err := Plan(g, shards)
	if err != nil {
		return nil, err
	}
	all := make([]int32, g.NumAuthors())
	for i := range all {
		all[i] = int32(i)
	}
	return &Coordinator{graph: g, cover: authorsim.GreedyCliqueCover(g, all), assign: a}, nil
}

// Assignment returns the coordinator's routing table.
func (c *Coordinator) Assignment() *Assignment { return c.assign }

// Cover returns the full clique cover.
func (c *Coordinator) Cover() *authorsim.CliqueCover { return c.cover }

// Slice returns shard s's view: owned authors, owned components, and the
// clique cover restricted to the owned authors. Cliques never straddle a
// slice boundary — a clique is mutually similar, hence inside one component.
func (c *Coordinator) Slice(s int) (Slice, error) {
	if s < 0 || s >= c.assign.shards {
		return Slice{}, fmt.Errorf("shard: slice index %d out of range [0,%d)", s, c.assign.shards)
	}
	sl := Slice{Shard: s}
	for ci, comp := range c.assign.comps {
		if int(c.assign.compShard[ci]) != s {
			continue
		}
		sl.Components = append(sl.Components, comp)
		sl.Authors = append(sl.Authors, comp...)
	}
	sort.Slice(sl.Authors, func(i, j int) bool { return sl.Authors[i] < sl.Authors[j] })
	for _, q := range c.cover.Cliques {
		if len(q) > 0 && c.assign.ShardOf(q[0]) == s {
			sl.Cliques = append(sl.Cliques, q)
		}
	}
	return sl, nil
}
