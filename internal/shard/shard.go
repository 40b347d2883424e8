// Package shard implements horizontal, author-partitioned sharding of the
// multi-user diversification service.
//
// The partition exploits the same independence the parallel engine uses at
// goroutine scale (paper §5): two posts can only cover each other when their
// authors are similar, i.e. connected in the author-similarity graph G(λa) —
// so posts whose authors live in different connected components never
// interact, for any user. Assigning every component to exactly one shard and
// routing each post to its author's shard therefore yields bit-identical
// per-post decisions to a single node, as long as every shard runs the same
// graph and thresholds over each user's subscriptions restricted to the
// authors it owns: a user subscribed across shards simply has each
// component of their subscription decided on the shard that owns it.
//
// The package provides three pieces:
//
//   - Plan and FromTable: the deterministic component → shard assignment,
//     planned by every worker from the shared engine config, adopted and
//     verified by the router (FromTable over a worker's
//     GET /v1/shard/assignment table, checked against every worker's
//     digest), and fingerprinted by its digest. A router builds no author
//     graph: it decides no post.
//   - Worker (NewWorker): wraps an httpapi.Server with the shard-local
//     stream/checkpoint/restore endpoints a router drives. The stream is
//     internal/ingeststream's, the framing clients also stream posts in.
//   - Router (NewRouter): an httpapi.Engine that fans ingest out to the
//     workers over one persistent framed stream per shard and merges
//     deliveries back in global id order. Every control request goes
//     through one helper that classifies the answer by one rule, and every
//     wait on a worker through one retry helper bound to the router's
//     lifetime, which Close ends.
package shard

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"firehose/internal/authorsim"
)

// Assignment is the author-partitioned routing table: every connected
// component of the author-similarity graph is owned by exactly one shard,
// and a post routes to the shard owning its author's component. Assignments
// are deterministic — every worker that plans one over the same graph and
// shard count gets byte-identical routing and the same digest, and a router
// that adopts one through FromTable gets the same routing and digest again.
type Assignment struct {
	shards int
	owner  []int32 // author → owning shard
	// edges and lambdaA are the planned graph's shape, kept so Table can hand
	// a router everything Digest covers.
	edges   int
	lambdaA float64
	digest  uint64
	// inputs is the engine inputs fingerprint AdoptAssignment verified every
	// worker reports, so the router's resync can hold a restarted worker to
	// it; empty for a planned assignment.
	inputs string
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
		shards:  shards,
		owner:   make([]int32, n),
		edges:   g.NumEdges(),
		lambdaA: g.LambdaA(),
	}
	load := make([]int, shards)
	for _, ci := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		load[best] += len(comps[ci])
		for _, author := range comps[ci] {
			a.owner[author] = int32(best)
		}
	}

	a.digest = digestOf(a)
	return a, nil
}

// FromTable rebuilds the assignment a worker planned from the table it
// serves (Assignment.Table), recomputing the digest with Plan's own function.
// A router adopts the workers' routing this way instead of planning over an
// author graph it would otherwise build only for that; it must still check
// the recomputed digest against the ones the workers report. The table comes
// off the network, so every field is checked: a table FromTable accepts
// routes every int32 author to a shard in [0, Shards).
func FromTable(t AssignmentTable) (*Assignment, error) {
	switch {
	case t.Shards < 1:
		return nil, fmt.Errorf("shard: assignment table has shard count %d, want at least 1", t.Shards)
	case t.Authors != len(t.Owners):
		return nil, fmt.Errorf("shard: assignment table names %d authors but carries %d owners", t.Authors, len(t.Owners))
	case t.Edges < 0:
		return nil, fmt.Errorf("shard: assignment table has edge count %d", t.Edges)
	case math.IsNaN(t.LambdaA) || t.LambdaA < 0 || t.LambdaA > 1:
		return nil, fmt.Errorf("shard: assignment table has λa %v outside [0, 1]", t.LambdaA)
	}
	for author, s := range t.Owners {
		if s < 0 || int(s) >= t.Shards {
			return nil, fmt.Errorf("shard: assignment table routes author %d to shard %d, outside [0,%d)", author, s, t.Shards)
		}
	}
	a := &Assignment{
		shards:  t.Shards,
		owner:   append([]int32(nil), t.Owners...),
		edges:   t.Edges,
		lambdaA: t.LambdaA,
	}
	a.digest = digestOf(a)
	return a, nil
}

// Table is the assignment as GET /v1/shard/assignment serves it. Its Owners
// is the assignment's own vector, read-only.
func (a *Assignment) Table() AssignmentTable {
	return AssignmentTable{
		Shards:  a.shards,
		Authors: len(a.owner),
		Edges:   a.edges,
		LambdaA: a.lambdaA,
		Owners:  a.owner,
	}
}

// digestOf is the one digest function Plan and FromTable share: FNV-1a over
// the shard count, the graph shape and the author → shard vector.
func digestOf(a *Assignment) uint64 {
	h := fnv.New64a()
	w64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	w64(uint64(a.shards))
	w64(uint64(len(a.owner)))
	w64(uint64(a.edges))
	w64(uint64(int64(a.lambdaA * 1e9)))
	for _, s := range a.owner {
		w64(uint64(s))
	}
	return h.Sum64()
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
// Every worker computes it from its own plan and the router from the table it
// adopted; a mismatch means the processes were started over different graphs
// or shard counts, and every cross-process message carries it so the
// disagreement is refused at the first request, not discovered as silently
// divergent decisions.
func (a *Assignment) Digest() uint64 { return a.digest }
