package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"slices"

	"firehose/internal/core"
	"firehose/internal/stream"
)

// Engine thresholds shared by every committed config and the reference.
var benchThresholds = core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: lambdaA}

// newSolver builds the sequential solver of the committed configs: the
// reference, and the engine behind every in-process sequential server.
func newSolver(in *inputs) (*core.SharedMultiUser, error) {
	return core.NewSharedMultiUser(core.AlgUniBin, in.graph, in.subs, benchThresholds)
}

// newParallel builds the 2-worker engine of bench/configs/par.json.
func newParallel(in *inputs) (*stream.ParallelMultiEngine, error) {
	return stream.NewParallelMultiEngineOpts(core.AlgUniBin, in.graph, in.subs, benchThresholds, 2, stream.ParallelOptions{})
}

const (
	timelineUsers = 8  // fixed users whose /v1/timeline is checked
	timelineTail  = 50 // newest posts compared per timeline
)

// golden is the committed (and, for every seed, recomputed) expectation of
// one workload run. Checkpoint sizes are deliberately absent: snapshots embed
// latency histograms whose varints vary with timing.
type golden struct {
	Workload       string              `json:"workload"`
	Seed           int64               `json:"seed"`
	Posts          int                 `json:"posts"`
	InputDigest    string              `json:"input_digest"`
	ResponseDigest string              `json:"response_digest"` // SHA-256 over the ordered (id, sorted delivered users)
	Accepted       uint64              `json:"accepted"`
	Rejected       uint64              `json:"rejected"`
	SubscribedUser int32               `json:"subscribed_user"`
	SSEIDs         []uint64            `json:"sse_ids"`
	Timelines      map[string][]uint64 `json:"timelines"` // user → newest timelineTail post ids
}

// expectation is a golden plus the per-post deliveries it was computed from,
// which let the checker name the first wrong response instead of reporting a
// digest mismatch only.
type expectation struct {
	golden
	delivered [][]int32 // per post, sorted
	// The reference solver's cost counters over the whole run: exact counts
	// the traced pass reports as core.* metrics.
	comparisons, deliveries uint64
	storedPeak              int64
	pruneRatio              float64
}

// responseHasher folds (id, sorted delivered users) records into the response
// digest, in stream order.
type responseHasher struct {
	h   hash.Hash
	buf []byte
}

func newResponseHasher() *responseHasher { return &responseHasher{h: sha256.New()} }

func (r *responseHasher) add(id uint64, sortedUsers []int32) {
	r.buf = binary.AppendUvarint(r.buf[:0], id)
	r.buf = binary.AppendUvarint(r.buf, uint64(len(sortedUsers)))
	for _, u := range sortedUsers {
		r.buf = binary.AppendUvarint(r.buf, uint64(u))
	}
	_, _ = r.h.Write(r.buf) // hash.Hash.Write never fails
}

func (r *responseHasher) sum() string { return hex.EncodeToString(r.h.Sum(nil)) }

// checkedUsers are the fixed users, evenly spaced over the id range, whose
// timelines are compared.
func checkedUsers(users int) []int32 {
	us := make([]int32, timelineUsers)
	for i := range us {
		us[i] = int32(i * users / timelineUsers)
	}
	return us
}

// reference computes the expectation in-process: one core.SharedMultiUser —
// the sequential solver every daemon shape claims to be bit-identical to —
// over the same followees-derived subscriptions and similarity graph.
func reference(w workload, in *inputs, posts []post) (*expectation, error) {
	md, err := newSolver(in)
	if err != nil {
		return nil, err
	}
	digest, err := in.inputDigest(posts)
	if err != nil {
		return nil, err
	}
	exp := &expectation{
		golden: golden{
			Workload:    w.name,
			Seed:        in.seed,
			Posts:       len(posts),
			InputDigest: digest,
			Timelines:   make(map[string][]uint64),
		},
		delivered: make([][]int32, len(posts)),
	}
	hasher := newResponseHasher()
	perUser := make([][]uint64, len(in.subs)) // delivered post ids per user
	for i, p := range posts {
		id := uint64(i + 1)
		users := slices.Clone(md.Offer(core.NewPost(id, p.Author, p.TimeMillis, p.Text)))
		slices.Sort(users)
		exp.delivered[i] = users
		hasher.add(id, users)
		for _, u := range users {
			perUser[u] = append(perUser[u], id)
		}
		exp.deliveries += uint64(len(users))
	}
	exp.ResponseDigest = hasher.sum()
	c := md.Counters()
	exp.Accepted, exp.Rejected = c.Accepted, c.Rejected
	exp.comparisons, exp.storedPeak, exp.pruneRatio = c.Comparisons, c.StoredPeak, c.PruneRatio()
	// Subscribe the user with the most deliveries (lowest id on ties): the
	// largest delivery-latency sample the stream offers.
	for u := range perUser {
		if len(perUser[u]) > len(perUser[exp.SubscribedUser]) {
			exp.SubscribedUser = int32(u)
		}
	}
	exp.SSEIDs = perUser[exp.SubscribedUser]
	for _, u := range checkedUsers(len(in.subs)) {
		ids := perUser[u]
		if len(ids) > timelineTail {
			ids = ids[len(ids)-timelineTail:]
		}
		exp.Timelines[fmt.Sprint(u)] = slices.Clone(ids)
	}
	return exp, nil
}

func goldenPath(root, workload string, seed int64) string {
	return filepath.Join(root, "bench", "golden", fmt.Sprintf("%s.seed%d.json", workload, seed))
}

// loadGolden reads the committed golden for (workload, seed); ok is false
// when none is committed.
func loadGolden(root, workload string, seed int64) (g golden, ok bool, err error) {
	data, err := os.ReadFile(goldenPath(root, workload, seed))
	if os.IsNotExist(err) {
		return golden{}, false, nil
	}
	if err != nil {
		return golden{}, false, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return golden{}, false, fmt.Errorf("%s: %w", goldenPath(root, workload, seed), err)
	}
	return g, true, nil
}

// writeGolden writes one top-level field per line, arrays compact, so a
// regenerated golden diffs field by field.
func writeGolden(root string, g golden) error {
	flat, err := json.Marshal(g)
	if err != nil {
		return err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(flat, &fields); err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString("{\n")
	keys := []string{"workload", "seed", "posts", "input_digest", "response_digest", "accepted", "rejected", "subscribed_user", "sse_ids", "timelines"}
	for i, k := range keys {
		fmt.Fprintf(&buf, " %q: %s", k, fields[k])
		if i < len(keys)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return os.WriteFile(goldenPath(root, g.Workload, g.Seed), buf.Bytes(), 0o644)
}

// diffGolden names the first field in which the recomputed reference departs
// from the committed golden, or "" when they agree. A difference means the
// solver's decisions (or the generator) changed since the golden was written.
func diffGolden(want, got golden) string {
	switch {
	case want.Posts != got.Posts:
		return fmt.Sprintf("posts: golden %d, run %d", want.Posts, got.Posts)
	case want.InputDigest != got.InputDigest:
		return "input_digest: the generated inputs changed"
	case want.ResponseDigest != got.ResponseDigest:
		return "response_digest: the reference decisions changed"
	case want.Accepted != got.Accepted || want.Rejected != got.Rejected:
		return fmt.Sprintf("accepted/rejected: golden %d/%d, reference %d/%d", want.Accepted, want.Rejected, got.Accepted, got.Rejected)
	case want.SubscribedUser != got.SubscribedUser:
		return fmt.Sprintf("subscribed_user: golden %d, reference %d", want.SubscribedUser, got.SubscribedUser)
	case !slices.Equal(want.SSEIDs, got.SSEIDs):
		return "sse_ids differ"
	}
	for u, ids := range want.Timelines {
		if !slices.Equal(ids, got.Timelines[u]) {
			return "timeline of user " + u + " differs"
		}
	}
	if len(want.Timelines) != len(got.Timelines) {
		return "timelines: different user sets"
	}
	return ""
}

// checker compares what a deployment answered with the expectation and
// counts every operation, so a run cannot pass without having been compared.
type checker struct {
	exp       *expectation
	hasher    *responseHasher
	next      int // index of the next expected post
	attempted int
	failed    int
	first     string // first failure, for the report
}

func newChecker(exp *expectation) *checker {
	return &checker{exp: exp, hasher: newResponseHasher()}
}

// note keeps the first failure's description for the report.
func (c *checker) note(format string, args ...any) {
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	c.note(format, args...)
}

// op records one operation that has no payload to compare (a checkpoint
// call, a failed request).
func (c *checker) op(err error) {
	c.attempted++
	if err != nil {
		c.fail("%v", err)
	}
}

// response checks one post's answer; answers must arrive in stream order.
func (c *checker) response(id uint64, delivered []int32) bool {
	i := c.next
	c.next++
	if i >= len(c.exp.delivered) {
		c.note("response %d: more answers than posts", i+1)
		return false
	}
	users := slices.Clone(delivered)
	slices.Sort(users)
	c.hasher.add(id, users)
	if id != uint64(i+1) {
		c.note("post %d: daemon assigned id %d; ids must be exactly 1..N", i+1, id)
		return false
	}
	if !slices.Equal(users, c.exp.delivered[i]) {
		c.note("post %d: delivered %v, reference %v", id, users, c.exp.delivered[i])
		return false
	}
	return true
}

// request checks one request's answers as a single operation.
func (c *checker) request(answers []answer) {
	c.attempted++
	ok := true
	for _, a := range answers {
		if !c.response(a.ID, a.Delivered) {
			ok = false
		}
	}
	if !ok {
		c.failed++
	}
}

// finish checks the whole-run facts: every post answered, the response
// digest, the /v1/stats split, the subscribed user's SSE frames (each
// expected frame is one operation) and the fixed users' timelines.
func (c *checker) finish(accepted, rejected uint64, sseIDs []uint64, timelines map[string][]uint64) {
	c.attempted++
	if c.next != len(c.exp.delivered) {
		c.fail("%d of %d posts answered", c.next, len(c.exp.delivered))
	} else if got := c.hasher.sum(); got != c.exp.ResponseDigest {
		c.fail("response digest %s, reference %s", got, c.exp.ResponseDigest)
	}
	c.attempted++
	if accepted != c.exp.Accepted || rejected != c.exp.Rejected {
		c.fail("/v1/stats accepted/rejected %d/%d, reference %d/%d", accepted, rejected, c.exp.Accepted, c.exp.Rejected)
	}
	// Frames are matched by post id, so one dropped frame fails once; the
	// order and the absence of foreign frames are one operation more.
	c.attempted += len(c.exp.SSEIDs) + 1
	if !slices.IsSorted(sseIDs) {
		c.fail("SSE frames for user %d arrived out of id order", c.exp.SubscribedUser)
	}
	got := make(map[uint64]int, len(sseIDs))
	for _, id := range sseIDs {
		got[id]++
	}
	matched := 0
	for i, want := range c.exp.SSEIDs {
		if got[want] != 1 {
			c.fail("SSE frame %d (post %d) for user %d arrived %d times", i+1, want, c.exp.SubscribedUser, got[want])
		} else {
			matched++
		}
	}
	if matched == len(c.exp.SSEIDs) && len(sseIDs) != matched {
		c.fail("%d SSE frames for user %d beyond the %d expected", len(sseIDs)-matched, c.exp.SubscribedUser, matched)
	}
	for u, want := range c.exp.Timelines {
		c.attempted++
		if got, ok := timelines[u]; !ok {
			c.fail("timeline of user %s was not read", u)
		} else if !slices.Equal(got, want) {
			c.fail("timeline of user %s: %v, reference %v", u, got, want)
		}
	}
}
