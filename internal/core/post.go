// Package core implements the paper's diversification model and its stream
// algorithms: the three-dimensional coverage predicate (Definition 1), the
// three SPSD algorithms UniBin, NeighborBin and CliqueBin (Section 4), the
// multi-user M_* and shared S_* algorithms for M-SPSD (Section 5), and the
// analytic cost model of Table 2 (Section 4.4).
//
// All timestamps are int64 Unix milliseconds and all time thresholds are
// millisecond spans; the public firehose package converts from time.Time and
// time.Duration at the boundary.
package core

import (
	"fmt"

	"firehose/internal/simhash"
	"firehose/internal/simindex"
	"firehose/internal/textnorm"
)

// Post is one element of a social post stream: an author, a timestamp, the
// textual content and its precomputed SimHash fingerprint. Posts are handed
// to diversifiers by pointer and treated as immutable after creation.
type Post struct {
	// ID identifies the post; diversifiers never interpret it.
	ID uint64
	// Author is the dense author id (index into the author similarity graph).
	Author int32
	// Time is the post timestamp in Unix milliseconds.
	Time int64
	// Text is the raw post content. Algorithms only consult FP; Text is kept
	// for delivery to the consuming user.
	Text string
	// FP is the SimHash fingerprint of the (normalized) text.
	FP simhash.Fingerprint
}

// NewPost builds a Post, fingerprinting the text with the paper's default
// pipeline (normalize, tokenize, SimHash).
func NewPost(id uint64, author int32, timeMillis int64, text string) *Post {
	return &Post{
		ID:     id,
		Author: author,
		Time:   timeMillis,
		Text:   text,
		FP:     Fingerprint(text),
	}
}

// RawFingerprint computes the SimHash of the unnormalized token bag, the
// Figure 3 baseline.
func RawFingerprint(text string) simhash.Fingerprint {
	return simhash.Hash(textnorm.RawTokens(text))
}

// Thresholds bundles the three diversity thresholds of Definition 1.
type Thresholds struct {
	// LambdaC is the maximum Hamming distance between SimHash fingerprints
	// for two posts to count as content-similar. The paper's default is 18.
	LambdaC int
	// LambdaT is the maximum timestamp distance in milliseconds. The paper's
	// default is 30 minutes.
	LambdaT int64
	// LambdaA is the maximum author distance (1 − cosine similarity of
	// followee vectors). It is applied when precomputing the author
	// similarity graph; streaming algorithms consult the graph. Recorded
	// here for validation and reporting. The paper's default is 0.7.
	LambdaA float64
	// Index selects the coverage-lookup policy: whether bins answer the
	// content dimension with a Manku block-permutation SimHash index
	// (internal/simindex) probing Hamming-plausible candidates directly, or
	// with the exact λt-window scan. The zero value IndexAuto applies the
	// paper's Section 3 feasibility test automatically.
	Index IndexPolicy
}

// IndexPolicy selects how bins perform the content-dimension lookup.
type IndexPolicy uint8

const (
	// IndexAuto — the default — indexes UniBin's single global-window bin
	// when LambdaC ≤ AutoIndexMaxLambdaC, and keeps the exact scan
	// otherwise. NeighborBin's and CliqueBin's bins stay on the exact scan
	// under auto: they are already pruned by the author dimension — the
	// paper's own argument for them — so their bins are small and the
	// per-bin table overhead is not worth it.
	IndexAuto IndexPolicy = iota
	// IndexOff forces the exact λt-window scan everywhere. Decisions are
	// identical under every policy (property-tested); Off pins the scan cost
	// model, which the comparison counters and the experiments reproduce.
	IndexOff
	// IndexOn forces index-backed bins for all three algorithms, including
	// the per-author and per-clique bins, at any Section 3-feasible LambdaC
	// (simindex.AutoParams: LambdaC ≤ 6). Validate rejects IndexOn when
	// LambdaC admits no feasible layout.
	IndexOn
)

// AutoIndexMaxLambdaC bounds the LambdaC range IndexAuto indexes. Section 3
// feasibility alone (LambdaC ≤ 6) is not the break-even: a λc=6 layout needs
// C(8,6) = 28 tables, and 28 bucket probes plus 28 insert/evict updates per
// post cost about as much as scanning a few-thousand-entry window exactly —
// benchmarked slower on the scan-bound hot-path workload (see
// BENCH_hotpath.json's lc6 pair). At λc ≤ 3 the layout needs at most 4
// tables, whose fixed per-post cost undercuts the window scan by an order of
// magnitude in the strict wide-window regime. Auto therefore indexes only
// where it is a clear win and IndexOn remains the explicit opt-in for the
// full feasible range.
const AutoIndexMaxLambdaC = 3

// String implements fmt.Stringer.
func (p IndexPolicy) String() string {
	switch p {
	case IndexAuto:
		return "auto"
	case IndexOff:
		return "off"
	case IndexOn:
		return "on"
	}
	return fmt.Sprintf("IndexPolicy(%d)", uint8(p))
}

// ParseIndexPolicy converts the flag spellings "auto", "off" and "on".
func ParseIndexPolicy(s string) (IndexPolicy, error) {
	switch s {
	case "auto", "":
		return IndexAuto, nil
	case "off":
		return IndexOff, nil
	case "on":
		return IndexOn, nil
	}
	return 0, fmt.Errorf("core: unknown index policy %q (want auto, on or off)", s)
}

// Validate reports whether the thresholds are usable.
func (th Thresholds) Validate() error {
	if th.LambdaC < 0 || th.LambdaC > simhash.Size {
		return fmt.Errorf("core: LambdaC must be in [0,%d], got %d", simhash.Size, th.LambdaC)
	}
	if th.LambdaT < 0 {
		return fmt.Errorf("core: LambdaT must be non-negative, got %d", th.LambdaT)
	}
	if th.LambdaA < 0 || th.LambdaA >= 1 {
		return fmt.Errorf("core: LambdaA must be in [0,1), got %v", th.LambdaA)
	}
	switch th.Index {
	case IndexAuto, IndexOff:
	case IndexOn:
		if _, ok := simindex.AutoParams(th.LambdaC); !ok {
			return fmt.Errorf("core: Index=on is infeasible at LambdaC=%d: no block layout "+
				"within %d tables meets the selectivity floor (the paper's Section 3 blow-up); "+
				"use Index=auto or off", th.LambdaC, simindex.AutoMaxTables)
		}
	default:
		return fmt.Errorf("core: invalid index policy %d", th.Index)
	}
	return nil
}

// indexParams resolves the index policy for one bin family. global is true
// for UniBin's single whole-window bin and false for the per-author /
// per-clique families; under IndexAuto only the global family is indexed
// (see IndexPolicy). ok=false means the family scans exactly.
func (th Thresholds) indexParams(global bool) (simindex.Params, bool) {
	switch th.Index {
	case IndexOff:
		return simindex.Params{}, false
	case IndexOn:
		return simindex.AutoParams(th.LambdaC)
	default:
		if !global || th.LambdaC > AutoIndexMaxLambdaC {
			return simindex.Params{}, false
		}
		return simindex.AutoParams(th.LambdaC)
	}
}

// AuthorGraph is the author-dimension oracle consumed by the algorithms:
// Similar answers the dista(Pi,Pj) <= λa test (true for the same author or
// graph neighbors), Neighbors drives NeighborBin's bin fan-out. Both
// *authorsim.Graph and *authorsim.Induced implement it.
type AuthorGraph interface {
	Similar(a, b int32) bool
	Neighbors(a int32) []int32
}

// Covers implements Definition 1: p and q cover each other iff they are
// within all three thresholds. The content check runs first (a single XOR
// and popcount), then time, then the author lookup — cheapest first, so a
// failing dimension prunes the rest, as Section 1 suggests.
func Covers(p, q *Post, th Thresholds, g AuthorGraph) bool {
	if simhash.Distance(p.FP, q.FP) > th.LambdaC {
		return false
	}
	dt := p.Time - q.Time
	if dt < 0 {
		dt = -dt
	}
	if dt > th.LambdaT {
		return false
	}
	return g.Similar(p.Author, q.Author)
}
