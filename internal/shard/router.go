package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"firehose/internal/checkpoint"
	"firehose/internal/connector"
	"firehose/internal/core"
	"firehose/internal/httpapi"
	"firehose/internal/ingeststream"
	"firehose/internal/metrics"
	"firehose/internal/stream"
)

// RouterOptions configures NewRouter. Peers and Assignment are required, and
// len(Peers) must equal Assignment.NumShards() — peer i is shard i.
type RouterOptions struct {
	// Peers are the worker base URLs, indexed by shard
	// ("http://host:port", no trailing slash).
	Peers []string
	// Assignment is the routing table: the one the workers planned, adopted
	// through AdoptAssignment, or one planned from the same engine config the
	// workers were started with.
	Assignment *Assignment
	// Client is the HTTP client for all worker traffic; nil uses a client with
	// a 30s timeout. Control requests go through it as they are; a shard
	// stream is dialled through its Transport, and its Timeout bounds the
	// stream's handshake and every reply on it (0 leaves them unbounded).
	Client *http.Client
}

const (
	// retryInterval paces a forward's transient-failure retries and the
	// polls that wait out a crashed worker. The boot barrier (AdoptAssignment,
	// AwaitPeers) polls at its own peerPollInterval.
	retryInterval = 200 * time.Millisecond
	// resyncTimeout bounds how long a forward waits for a crashed worker to
	// come back before giving up.
	resyncTimeout = 60 * time.Second
	// maxPendingPosts bounds the total posts held across the per-shard
	// replay buffers. When the bound is reached the router fires the
	// SetPendingFullHook callback (once per coordination round), asking the
	// deployment to run a coordination round that clears the buffers —
	// without it, a router that never checkpoints would buffer every
	// forwarded post for the lifetime of the process.
	maxPendingPosts = 8192
)

// Router is the fan-out half of a sharded deployment: an httpapi.Engine whose
// Offer forwards each post to the shard owning its author's component and
// whose reads merge the workers' answers back into one surface. Plugged into
// httpapi.NewFromEngine, a router process serves the byte-identical HTTP API
// of a single node — same id allocation, same disorder checks, same SSE and
// connector egress — while the decisions happen on the workers.
//
// # Merge ordering
//
// Offer is a turnstile: a post may only forward once every smaller id has
// completed (successfully or not), so deliveries leave the router in strictly
// increasing global id order and every user's merged stream is seq-monotone —
// exactly the order a single node produces. OfferBatch holds one turn for the
// whole batch and fans the per-shard sub-batches out concurrently, then
// reassembles the results in batch order, so cross-shard batches still
// parallelize under the turnstile.
//
// # Crash recovery
//
// The router keeps, per shard, every post forwarded since the last
// coordinated checkpoint (the pending replay buffer). When a forward fails
// ambiguously — a broken or refused stream, an overrun reply bound, a worker
// restart — the router drops the shard's stream, polls the worker back to
// health, verifies its topology digest, rolls it back to the last coordinated
// round (POST /v1/shard/restore), replays the pending suffix as one pipeline
// on a fresh stream, and then retries the in-flight post. Decisions are
// deterministic, so the replayed suffix rebuilds the identical worker state
// and the retried post gets the identical answer a crash-free run would have
// produced.
type Router struct {
	peers  []string
	assign *Assignment
	client *http.Client
	// retryIvl, resyncTO and maxPending start at retryInterval,
	// resyncTimeout and maxPendingPosts; in-package tests shorten them.
	retryIvl   time.Duration
	resyncTO   time.Duration
	maxPending int
	// pendingFull is the buffers-full callback (SetPendingFullHook), invoked
	// on its own goroutine when the replay buffers reach maxPending. Set once
	// before serving traffic, read-only afterwards.
	pendingFull func()
	// streams[s] is shard s's persistent stream, dialled on the first forward.
	streams []shardStream
	// ctx is the router's lifetime, and Close cancels it: every wait on a
	// worker selects on it, and every open stream closes with it.
	ctx    context.Context
	cancel context.CancelFunc

	// mu guards: lastDone, ckptW, pending, base, pendingFullFired, stats
	mu   sync.Mutex
	cond *sync.Cond
	// lastDone is the largest post id whose forward has completed (the
	// turnstile's gate); equal to the server's id watermark when quiescent.
	lastDone uint64
	// ckptW is the watermark of the newest coordinated checkpoint round.
	ckptW uint64
	// pending[s] holds the posts forwarded to shard s since the last
	// coordination round, in id order — the crash-replay buffer.
	pending [][]ingeststream.Request
	// base[s] is shard s's own id watermark at the last coordination round;
	// base[s] (or the last pending id) is the watermark a healthy worker must
	// report.
	base []uint64
	// pendingFullFired records that the buffers-full callback already ran for
	// the current coordination round; coordinate() re-arms it.
	pendingFullFired bool
	// stats[s] feeds shard s's firehose_shard_* series.
	stats []shardStats
}

// shardStream owns the router's end of one shard's stream.
type shardStream struct {
	// mu guards: sc, replies
	// It is held for a whole exchange: the turnstile already sends single
	// forwards one at a time, and this keeps a resync replay and a batch's
	// per-shard goroutine from interleaving frames with them.
	mu sync.Mutex
	sc *ingeststream.Conn
	// replies is the exchanges' reply buffer, reused.
	replies []ingeststream.Reply
}

// shardStats are one shard's forward counters.
type shardStats struct {
	// forward observes each forward — one post or one pipelined sub-batch —
	// from its first attempt to its outcome, recovery included.
	forward metrics.Histogram
	// bytes counts frame bytes written and read.
	bytes uint64
	// dials counts stream Upgrade attempts; resyncs counts rollback-and-replay
	// recoveries.
	dials, resyncs uint64
}

// NewRouter validates the options and builds the router. Build it over the
// assignment AdoptAssignment returns, or call AwaitPeers before serving
// traffic.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Assignment == nil {
		return nil, fmt.Errorf("shard: RouterOptions.Assignment is required")
	}
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("shard: RouterOptions.Peers is required")
	}
	if len(opts.Peers) != opts.Assignment.NumShards() {
		return nil, fmt.Errorf("shard: %d peers for %d shards; the router needs exactly one worker URL per shard",
			len(opts.Peers), opts.Assignment.NumShards())
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	rt := &Router{
		peers:      append([]string(nil), opts.Peers...),
		assign:     opts.Assignment,
		client:     client,
		retryIvl:   retryInterval,
		resyncTO:   resyncTimeout,
		maxPending: maxPendingPosts,
		streams:    make([]shardStream, len(opts.Peers)),
		pending:    make([][]ingeststream.Request, len(opts.Peers)),
		base:       make([]uint64, len(opts.Peers)),
		stats:      make([]shardStats, len(opts.Peers)),
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	rt.cond = sync.NewCond(&rt.mu)
	return rt, nil
}

// SetPendingFullHook installs the callback fired (on its own goroutine, once
// per coordination round) when the replay buffers reach maxPendingPosts
// posts. The daemon points it at the checkpoint manager, so a full buffer
// triggers the same coordination round a periodic checkpoint runs — clearing
// the buffers.
// Call before serving traffic.
func (rt *Router) SetPendingFullHook(fn func()) { rt.pendingFull = fn }

// Name implements httpapi.Engine.
func (rt *Router) Name() string {
	return fmt.Sprintf("router(%d shards, digest %016x)", len(rt.peers), rt.assign.Digest())
}

// Close ends the router's lifetime: it unblocks waiting turns, ends every
// wait on a worker and closes every shard stream, failing any exchange in
// flight; subsequent Offers fail with stream.ErrClosed.
func (rt *Router) Close() {
	rt.cancel()
	rt.mu.Lock()
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

// acquireTurn blocks until every id below id has completed. The comparison is
// "wait while id > lastDone+1" rather than an exact match: a terminally
// failed forward still advances lastDone past its id (the HTTP layer rolls
// the allocation back and may hand the same id out again), so both a burned
// id and a reused one pass the gate instead of deadlocking it.
func (rt *Router) acquireTurn(id uint64) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.ctx.Err() == nil && id > rt.lastDone+1 {
		rt.cond.Wait()
	}
	if rt.ctx.Err() != nil {
		return stream.ErrClosed
	}
	return nil
}

// completeTurn releases the turnstile after a forward completed (either way).
func (rt *Router) completeTurn(id uint64) {
	rt.mu.Lock()
	if id > rt.lastDone {
		rt.lastDone = id
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
}

// Offer implements httpapi.Engine: route the post to its author's shard,
// forward it (with crash recovery), and record it in the replay buffer.
func (rt *Router) Offer(p *core.Post) ([]int32, error) {
	if err := rt.acquireTurn(p.ID); err != nil {
		return nil, err
	}
	defer rt.completeTurn(p.ID)
	shard := rt.assign.ShardOf(p.Author)
	// Prev pins the worker watermark this forward must land on; it stays valid
	// across resyncs (recovery restores the worker to exactly this watermark)
	// because pending[shard] only grows after this forward succeeds.
	reqs := [1]ingeststream.Request{{ID: p.ID, Author: p.Author, TimeMillis: p.Time, Text: p.Text, Prev: rt.expected(shard)}}
	var users [1][]int32
	if err := rt.forward(shard, reqs[:], users[:]); err != nil {
		return nil, err
	}
	rt.recordForwarded(shard, reqs[0])
	return users[0], nil
}

// OfferBatch implements httpapi.Engine: one turn for the whole batch,
// per-shard sub-batches pipelined on their streams concurrently, results
// reassembled in batch order.
func (rt *Router) OfferBatch(posts []*core.Post) ([][]int32, error) {
	if len(posts) == 0 {
		return nil, nil
	}
	if err := rt.acquireTurn(posts[0].ID); err != nil {
		return nil, err
	}
	defer rt.completeTurn(posts[len(posts)-1].ID)

	// Partition into per-shard sub-batches, remembering each post's batch
	// position so the per-shard results reassemble in order.
	sub := make([][]ingeststream.Request, len(rt.peers))
	subIdx := make([][]int, len(rt.peers))
	for i, p := range posts {
		s := rt.assign.ShardOf(p.Author)
		prev := rt.expected(s)
		if reqs := sub[s]; len(reqs) > 0 {
			prev = reqs[len(reqs)-1].ID
		}
		sub[s] = append(sub[s], ingeststream.Request{ID: p.ID, Author: p.Author, TimeMillis: p.Time, Text: p.Text, Prev: prev})
		subIdx[s] = append(subIdx[s], i)
	}

	results := make([][]int32, len(posts))
	if failed, err := rt.eachShard(func(s int) error {
		if len(sub[s]) == 0 {
			return nil
		}
		users := make([][]int32, len(sub[s]))
		if err := rt.forward(s, sub[s], users); err != nil {
			return err
		}
		for i, u := range users {
			results[subIdx[s][i]] = u
		}
		return nil
	}); err != nil {
		// The engine contract treats a batch as one unit: the HTTP layer
		// rolls the ids back, and nothing lands in pending. A shard that did
		// ingest its sub-batch now holds state the router never recorded —
		// its next forward fails the Prev check (shard_desync) and resyncs,
		// and coordinate() verifies and resyncs every shard before a
		// checkpoint, so the phantom sub-batch is rolled back and replayed
		// before anything is made durable.
		return nil, fmt.Errorf("shard %d: %w", failed, err)
	}
	for s, reqs := range sub {
		for _, r := range reqs {
			rt.recordForwarded(s, r)
		}
	}
	return results, nil
}

// recordForwarded appends a successfully forwarded post to the shard's replay
// buffer and fires the buffers-full callback when the total pending count
// reaches maxPending — the bound that keeps an infrequently-checkpointing
// router from buffering the whole stream.
func (rt *Router) recordForwarded(shard int, req ingeststream.Request) {
	rt.mu.Lock()
	rt.pending[shard] = append(rt.pending[shard], req)
	total := 0
	for s := range rt.pending {
		total += len(rt.pending[s])
	}
	fire := total >= rt.maxPending && rt.pendingFull != nil && !rt.pendingFullFired
	if fire {
		rt.pendingFullFired = true
	}
	rt.mu.Unlock()
	if fire {
		// Own goroutine: the hook checkpoints, which takes the exclusive
		// ingest lock, and this forward still holds it shared.
		go rt.pendingFull()
	}
}

// expected returns the id watermark a healthy worker for shard s must report:
// its watermark at the last coordination round, advanced by every pending
// forward since.
func (rt *Router) expected(s int) uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	exp := rt.base[s]
	if n := len(rt.pending[s]); n > 0 {
		exp = rt.pending[s][n-1].ID
	}
	return exp
}

// fwdClass classifies one forward attempt's outcome.
type fwdClass int

const (
	fwdOK       fwdClass = iota
	fwdRetry             // transient with intact worker state (a failed control request): retry after a pause
	fwdResync            // ambiguous or crashed: recover the worker, then retry at once
	fwdTerminal          // deterministic refusal: give up
)

// retry is the router's one way to wait on a worker. It runs attempt until
// attempt answers fwdOK (retry returns nil) or fwdTerminal (its error), until
// the window closes at deadline, or until ctx is done. A deadline already
// past allows exactly one attempt; the zero deadline leaves the end to ctx.
// After fwdRetry it waits every before the next attempt; after fwdResync it
// goes again at once, because that attempt recovers the worker first. over
// reports that the window or ctx, not an answer, ended the wait; err is
// then the last attempt's.
func retry(ctx context.Context, deadline time.Time, every time.Duration, attempt func() (fwdClass, error)) (over bool, err error) {
	for {
		class, err := attempt()
		switch {
		case class == fwdOK:
			return false, nil
		case class == fwdTerminal:
			return false, err
		case ctx.Err() != nil, !deadline.IsZero() && !time.Now().Before(deadline):
			return true, err
		case class == fwdResync:
			continue
		}
		select {
		case <-ctx.Done():
			return true, err
		case <-time.After(every):
		}
	}
}

// forward sends one post, or one sub-batch as a pipeline, to its shard with
// bounded recovery; out receives the deliveries, one entry per request.
func (rt *Router) forward(shard int, reqs []ingeststream.Request, out [][]int32) error {
	start := time.Now()
	defer func() {
		rt.mu.Lock()
		rt.stats[shard].forward.ObserveSince(start)
		rt.mu.Unlock()
	}()
	deadline := start.Add(rt.resyncTO)
	var failed error // the failure the next attempt recovers from, if any
	over, err := retry(rt.ctx, deadline, rt.retryIvl, func() (fwdClass, error) {
		if failed != nil {
			if err := rt.resync(shard, deadline); err != nil {
				return fwdTerminal, fmt.Errorf("shard: forward to shard %d failed (%v) and recovery failed: %w", shard, failed, err)
			}
		}
		_, class, err := rt.exchange(shard, reqs, out)
		failed = nil
		if class == fwdResync {
			failed = err
		}
		return class, err
	})
	switch {
	case err == nil:
		return nil
	case rt.ctx.Err() != nil:
		return stream.ErrClosed // Close ended the wait; there is nothing to recover for
	case over:
		return fmt.Errorf("shard: giving up on shard %d after %v: %w", shard, rt.resyncTO, err)
	}
	return err
}

// exchange runs reqs as one pipelined exchange on the shard's stream,
// dialling it first if there is none, and classifies the outcome as fwdOK,
// fwdResync or fwdTerminal. The first result is how many leading posts the
// worker ingested. Each ingested post's reply must carry the id it was
// forwarded with; one that does not breaks the stream.
func (rt *Router) exchange(shard int, reqs []ingeststream.Request, out [][]int32) (int, fwdClass, error) {
	for i := range reqs {
		if len(reqs[i].Text) > ingeststream.MaxText {
			// Deterministic: a replay of the same post is refused again.
			return 0, fwdTerminal, connector.Rejection(fmt.Errorf("shard: post %d: %d bytes of text exceed the shard stream's %d-byte text bound", reqs[i].ID, len(reqs[i].Text), ingeststream.MaxText))
		}
	}
	st := &rt.streams[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sc == nil {
		sc, class, err := rt.dial(shard)
		if class != fwdOK {
			return 0, class, err
		}
		st.sc = sc
	}
	st.replies = slices.Grow(st.replies[:0], len(reqs))[:len(reqs)]
	n, moved, err := st.sc.RoundTrip(reqs, st.replies)
	rt.mu.Lock()
	rt.stats[shard].bytes += uint64(moved)
	rt.mu.Unlock()
	accepted := 0
	for ; accepted < n && st.replies[accepted].Status == 0; accepted++ {
		if got := st.replies[accepted].ID; got != reqs[accepted].ID {
			err = fmt.Errorf("post %d was answered as post %d", reqs[accepted].ID, got)
			break
		}
		if out != nil {
			out[accepted] = st.replies[accepted].Users
		}
	}
	if err != nil {
		st.sc.Close()
		st.sc = nil
		return accepted, fwdResync, fmt.Errorf("shard %d stream: %w", shard, err)
	}
	if accepted == len(reqs) {
		return accepted, fwdOK, nil
	}
	// The Prev chain makes the worker refuse every frame after the first
	// refused one, so the first refusal is the one that counts.
	class, err := classifyRefusal(st.replies[accepted].Status, st.replies[accepted].Envelope)
	return accepted, class, err
}

// dial opens the shard's stream, tied to the router's lifetime: Close closes
// it, whether it has an exchange in flight or not.
func (rt *Router) dial(shard int) (*ingeststream.Conn, fwdClass, error) {
	rt.mu.Lock()
	rt.stats[shard].dials++
	rt.mu.Unlock()
	tr := rt.client.Transport
	if tr == nil {
		tr = http.DefaultTransport
	}
	topology := http.Header{TopologyHeader: {formatTopology(rt.assign.Digest(), shard, len(rt.peers))}}
	sc, status, body, err := ingeststream.Dial(rt.ctx, tr, rt.peers[shard]+streamPath, ingeststream.ShardProtocol, topology, rt.client.Timeout)
	switch {
	case err != nil:
		return nil, fwdResync, fmt.Errorf("dialling shard %d's stream: %w", shard, err)
	case sc == nil && (status == http.StatusNotFound || status == http.StatusMethodNotAllowed):
		// Not a transient condition, and nothing a rollback heals.
		return nil, fwdTerminal, fmt.Errorf(
			"shard %d (%s) does not speak %s: POST %s answered %d; the router and its workers must run the same firehosed build",
			shard, rt.peers[shard], ingeststream.ShardProtocol, streamPath, status)
	case sc == nil:
		class, err := classifyRefusal(status, body)
		return nil, class, err
	}
	return sc, fwdOK, nil
}

// resync brings one shard back to the router's view of its state: poll it
// healthy, verify its topology digest (and, on an adopted assignment, its
// engine inputs fingerprint), roll it back to the last coordinated
// round, and replay the pending suffix. Safe to call on a healthy worker (it
// detects the intact state and skips the rollback). A forward runs it after
// a failed exchange; a coordination round only after the shard's checkpoint
// request is refused or gets no answer.
func (rt *Router) resync(shard int, deadline time.Time) error {
	// 1. Poll the worker back to reachability and verify its identity.
	var topo httpapi.TopologyResponse
	if _, err := retry(rt.ctx, deadline, rt.retryIvl, func() (fwdClass, error) {
		return rt.control(shard, "/v1/admin/topology", nil, &topo)
	}); err != nil {
		return fmt.Errorf("shard %d (%s) unreachable: %w", shard, rt.peers[shard], err)
	}
	want := fmt.Sprintf("%016x", rt.assign.Digest())
	if topo.Digest != want || topo.Shard != shard || topo.Shards != len(rt.peers) {
		return fmt.Errorf("%s: peer %s reports shard %d/%d digest %s, want shard %d/%d digest %s",
			httpapi.CodeShardMismatch, rt.peers[shard], topo.Shard, topo.Shards, topo.Digest, shard, len(rt.peers), want)
	}
	if in := rt.assign.inputs; in != "" && topo.Inputs != in {
		return fmt.Errorf("%s: peer %s reports engine inputs %.16s…, want %.16s…; it was restarted over another configuration",
			httpapi.CodeShardMismatch, rt.peers[shard], topo.Inputs, in)
	}

	// 2. Intact state (e.g. a blip that lost only the response of a post the
	// worker never saw): nothing to replay.
	if topo.Watermark == rt.expected(shard) {
		return nil
	}

	// 3. Roll back to the last coordination round...
	rt.mu.Lock()
	w := rt.ckptW
	replay := append([]ingeststream.Request(nil), rt.pending[shard]...)
	rt.stats[shard].resyncs++
	rt.mu.Unlock()
	var res RestoreResponse
	if class, err := rt.control(shard, "/v1/shard/restore", RestoreRequest{Watermark: w}, &res); class != fwdOK {
		return fmt.Errorf("rolling shard %d back to coordinated watermark %d: %w", shard, w, err)
	}
	if res.Restored && res.Watermark != w {
		return fmt.Errorf("%s: shard %d restored tag %d, want %d", httpapi.CodeShardMismatch, shard, res.Watermark, w)
	}

	// 4. ...and replay the pending suffix as one pipeline. Decisions are
	// deterministic, so the answers are the ones already returned to clients;
	// only the worker state matters here.
	for len(replay) > 0 && replay[0].ID <= res.ShardSeq {
		replay = replay[1:] // already inside the restored state
	}
	prev := res.ShardSeq
	for i := range replay {
		replay[i].Prev = prev // re-chain from the restored watermark
		prev = replay[i].ID
	}
	if _, err := retry(rt.ctx, deadline, rt.retryIvl, func() (fwdClass, error) {
		if len(replay) == 0 {
			return fwdOK, nil
		}
		done, class, err := rt.exchange(shard, replay, nil)
		replay = replay[done:] // the chain still holds from the refused frame on
		if class == fwdResync {
			class = fwdRetry // a broken stream is redialled by the next attempt
		}
		return class, err
	}); err != nil {
		return fmt.Errorf("replaying %d pending posts to shard %d: %w", len(replay), shard, err)
	}
	return nil
}

// eachShard runs fn for every shard concurrently and returns the lowest
// shard whose fn failed, with its error (-1 and nil when none did), so every
// fan-out reports the same shard however the goroutines interleave.
func (rt *Router) eachShard(fn func(s int) error) (int, error) {
	errs := make([]error, len(rt.peers))
	var wg sync.WaitGroup
	for s := range rt.peers {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return s, err
		}
	}
	return -1, nil
}

// fromEveryShard GETs path from every shard concurrently, each answer into
// out(s), retrying a failed request until deadline, and returns the lowest
// shard it could not read (-1 when it read all).
func (rt *Router) fromEveryShard(deadline time.Time, path string, out func(s int) any) int {
	failed, _ := rt.eachShard(func(s int) error {
		_, err := retry(rt.ctx, deadline, rt.retryIvl, func() (fwdClass, error) {
			return rt.control(s, path, nil, out(s))
		})
		return err
	})
	return failed
}

// TimelineTail reads the newest n posts of the user's timeline, oldest
// first, and the length of the whole timeline. Each shard holds exactly the
// user's posts whose authors it owns, so the newest n overall are among the
// shards' newest n each: the router asks every shard for n, merges the
// disjoint answers by ascending id, keeps the newest n and sums the shards'
// totals. A failed shard read is retried within the resync window, like
// forwards; a shard that stays unreachable past it is an error — a silently
// partial merge would diverge from the single-node read. The HTTP layer
// serves the error as 503 shard_unavailable.
func (rt *Router) TimelineTail(user int32, n int) (tail []*core.Post, total int, err error) {
	resps := make([]httpapi.TimelineResponse, len(rt.peers))
	failed := rt.fromEveryShard(time.Now().Add(rt.resyncTO), fmt.Sprintf("/v1/timeline?user=%d&n=%d", user, n),
		func(s int) any { return &resps[s] })
	if failed != -1 {
		return nil, 0, fmt.Errorf("shard %d (%s) answered no timeline within %v; the merged timeline would be missing its posts",
			failed, rt.peers[failed], rt.resyncTO)
	}
	for _, resp := range resps {
		total += resp.Total
		for _, p := range resp.Posts {
			// No fingerprint: the read path serves id, author, time and text
			// only.
			tail = append(tail, &core.Post{ID: p.ID, Author: p.Author, Time: p.TimeMillis, Text: p.Text})
		}
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i].ID < tail[j].ID })
	return tail[len(tail)-min(n, len(tail)):], total, nil
}

// Timeline implements httpapi.Engine with the whole history. The HTTP layer
// reads TimelineTail instead (failures become 503 shard_unavailable); this
// error-less form answers nil while any shard is unreachable.
func (rt *Router) Timeline(user int32) []*core.Post {
	tl, _, _ := rt.TimelineTail(user, math.MaxInt)
	return tl
}

// counters sums the workers' GET /v1/stats answers, fetched through
// fromEveryShard until deadline, and returns the lowest shard it could not
// read (-1 when it read all); an unread shard adds nothing to the sum.
// Comparisons, insertions, evictions and the accept/reject tallies are exact
// (each decision happens on exactly one shard). StoredPeak is an upper bound,
// not the single-node metric: it sums per-shard peaks that were reached at
// independent moments, so it can exceed the deployment-wide peak a single
// node would have recorded.
func (rt *Router) counters(deadline time.Time) (metrics.Counters, int) {
	stats := make([]httpapi.StatsResponse, len(rt.peers))
	failed := rt.fromEveryShard(deadline, "/v1/stats", func(s int) any { return &stats[s] })
	var sum metrics.Counters
	for _, resp := range stats {
		sum.Comparisons += resp.Comparisons
		sum.Insertions += resp.Insertions
		sum.Evictions += resp.Evictions
		sum.Accepted += resp.Accepted
		sum.Rejected += resp.Rejected
		sum.StoredPeak += resp.PeakCopies
	}
	return sum, failed
}

// CountersErr is the failure-aware counters read, the counterpart of
// TimelineTail: a shard whose stats stay unreadable past the resync window is
// an error, never a silently partial sum. GET /v1/stats prefers it and serves
// the error as 503 shard_unavailable.
func (rt *Router) CountersErr() (metrics.Counters, error) {
	sum, failed := rt.counters(time.Now().Add(rt.resyncTO))
	if failed != -1 {
		return metrics.Counters{}, fmt.Errorf("shard %d (%s) answered no stats within %v; the summed counters would be missing its decisions",
			failed, rt.peers[failed], rt.resyncTO)
	}
	return sum, nil
}

// Counters implements httpapi.Engine with one attempt per shard: the
// /v1/metrics scrape reads it, and a scrape must not wait out the resync
// window. A shard that does not answer adds nothing; GET /v1/stats reads
// CountersErr instead.
func (rt *Router) Counters() metrics.Counters {
	sum, _ := rt.counters(time.Now())
	return sum
}

// SnapshotState implements core.StateSnapshotter: the coordinated checkpoint
// round. The HTTP layer calls it under the exclusive ingest lock, so no
// forward is in flight and lastDone is the exact global watermark. Order
// matters for the durability invariant: every worker durably writes its
// tagged checkpoint first, the router's own meta section is encoded second,
// and the caller's ack (the connector cursor) only advances after the whole
// file is on disk — so a router checkpoint at watermark w proves every shard
// holds shard-<w>.fhc.
func (rt *Router) SnapshotState(enc *checkpoint.Encoder) error {
	w, seqs, err := rt.coordinate()
	if err != nil {
		return err
	}
	enc.String("router")
	enc.Uvarint(uint64(len(rt.peers)))
	enc.U64(rt.assign.Digest())
	enc.Uvarint(w)
	for _, q := range seqs {
		enc.Uvarint(q)
	}
	return nil
}

// coordinate runs one coordination round: every worker durably writes its
// tagged checkpoint at the router's current watermark, and the router adopts
// the round (ckptW advances, the replay buffers clear, the per-shard bases
// move to the workers' reported watermarks).
//
// A worker's checkpoint is written only over state the replay buffer
// accounts for. A worker can hold state the router never recorded — a
// partially failed OfferBatch ingests one shard's sub-batch, the HTTP layer
// rolls the ids back, and nothing lands in pending. Checkpointing that
// phantom state would bake it into the tagged checkpoint and the adopted
// base, terminally rejecting the re-allocated ids. So each checkpoint
// request names the watermark the buffer predicts, the worker refuses
// another one (shard_desync), and the router resyncs it — rolling the
// phantom sub-batch back and replaying the recorded suffix — before it asks
// again.
func (rt *Router) coordinate() (uint64, []uint64, error) {
	rt.mu.Lock()
	w := rt.lastDone
	rt.mu.Unlock()
	// A coordination round is administrative — its callers (the periodic tick,
	// the admin endpoint, the buffers-full hook, the shutdown checkpoint)
	// retry or report, so an unreachable worker fails the round fast instead
	// of riding out the full resync window the way a forward must. A
	// shutdown-time round racing the workers' own exits would otherwise block
	// the process for the whole resyncTimeout.
	deadline := time.Now().Add(2 * rt.retryIvl)
	// The shards go concurrently: each tagged checkpoint is an fsync in
	// another process, and the caller holds the exclusive ingest lock for as
	// long as the slowest takes.
	seqs := make([]uint64, len(rt.peers))
	if _, err := rt.eachShard(func(s int) (err error) {
		seqs[s], err = rt.coordinateShard(s, w, deadline)
		return err
	}); err != nil {
		return 0, nil, err
	}
	rt.mu.Lock()
	rt.ckptW = w
	for s := range rt.pending {
		rt.pending[s] = rt.pending[s][:0]
		rt.base[s] = seqs[s]
	}
	rt.pendingFullFired = false
	rt.mu.Unlock()
	return w, seqs, nil
}

// coordinateShard is one shard's part of a coordination round, and on a
// healthy worker it is one request: write the tagged checkpoint at round
// watermark w, provided the worker's id watermark is the one the replay
// buffer predicts and its engine inputs are the adopted ones. Only when the
// worker refuses (shard_desync, shard_mismatch) or the request gets no
// answer does the router run the full resync — probe, rollback, replay —
// and ask once more. It returns the shard watermark inside the checkpoint.
func (rt *Router) coordinateShard(s int, w uint64, deadline time.Time) (uint64, error) {
	req := CheckpointRequest{Watermark: w, ShardSeq: rt.expected(s), Inputs: rt.assign.inputs}
	var resp CheckpointResponse
	class, err := rt.control(s, "/v1/shard/checkpoint", req, &resp)
	var ee *envelopeError
	if class == fwdRetry || errors.As(err, &ee) && ee.code == httpapi.CodeShardMismatch {
		if err := rt.resync(s, deadline); err != nil {
			return 0, fmt.Errorf("shard: coordinated checkpoint at watermark %d: resyncing shard %d: %w", w, s, err)
		}
		class, err = rt.control(s, "/v1/shard/checkpoint", req, &resp)
	}
	if class != fwdOK {
		return 0, fmt.Errorf("shard: coordinated checkpoint at watermark %d: shard %d: %w", w, s, err)
	}
	// The caller holds the exclusive ingest lock and the worker vouched for
	// its watermark, so the checkpointed watermark must be exactly the one
	// the replay buffer predicts; adopting anything else would desynchronize
	// the rollback contract durably.
	if exp := rt.expected(s); resp.ShardSeq != exp {
		return 0, fmt.Errorf(
			"shard: coordinated checkpoint at watermark %d: shard %d checkpointed its watermark %d, the router expected %d; refusing to adopt the round",
			w, s, resp.ShardSeq, exp)
	}
	return resp.ShardSeq, nil
}

// RestoreState implements core.StateSnapshotter: verify the checkpoint's
// topology, roll every worker back to the coordinated round it names, and
// adopt its watermark. Workers that are still booting are polled within the
// resync timeout.
func (rt *Router) RestoreState(dec *checkpoint.Decoder) error {
	dec.Expect("router")
	shards := int(dec.Uvarint())
	digest := dec.U64()
	w := dec.Uvarint()
	var seqs []uint64
	if shards > 0 && shards <= 1<<20 {
		seqs = make([]uint64, shards)
		for i := range seqs {
			seqs[i] = dec.Uvarint()
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if shards != len(rt.peers) || digest != rt.assign.Digest() {
		return fmt.Errorf(
			"shard: %s: checkpoint was written by a router over %d shards (assignment digest %016x), this router runs %d shards (digest %016x); restore it with the matching worker count and graph configuration",
			httpapi.CodeShardMismatch, shards, digest, len(rt.peers), rt.assign.Digest())
	}
	deadline := time.Now().Add(rt.resyncTO)
	for s := range rt.peers {
		var res RestoreResponse
		if _, err := retry(rt.ctx, deadline, rt.retryIvl, func() (fwdClass, error) {
			return rt.control(s, "/v1/shard/restore", RestoreRequest{Watermark: w}, &res)
		}); err != nil {
			return fmt.Errorf("shard: restoring shard %d to coordinated watermark %d: %w", s, w, err)
		}
		if res.Restored && res.Watermark != w {
			return fmt.Errorf("shard: %s: shard %d restored tag %d, want %d", httpapi.CodeShardMismatch, s, res.Watermark, w)
		}
		if res.ShardSeq != seqs[s] {
			return fmt.Errorf(
				"shard: %s: shard %d reports watermark %d inside coordinated round %d, the router checkpoint recorded %d; the worker's checkpoint directory does not match this router's",
				httpapi.CodeShardMismatch, s, res.ShardSeq, w, seqs[s])
		}
	}
	rt.mu.Lock()
	rt.lastDone = w
	rt.ckptW = w
	for s := range rt.pending {
		rt.pending[s] = rt.pending[s][:0]
		rt.base[s] = seqs[s]
	}
	rt.pendingFullFired = false
	rt.mu.Unlock()
	return nil
}

// InitialCoordination runs a coordination round at the router's current
// watermark. A cold router calls it once on boot so every worker holds a
// tagged rollback target (shard-0.fhc) from the very first post — without
// one, a crash before the first periodic checkpoint would have nowhere to
// roll back to.
func (rt *Router) InitialCoordination() error {
	_, _, err := rt.coordinate()
	return err
}

// peerPollInterval paces the boot barrier's probes. Workers boot alongside the
// router, so the barrier mostly waits out their last milliseconds of setup;
// every millisecond it sleeps past a worker's readiness adds to the fleet's
// boot, and a refused probe costs next to nothing.
const peerPollInterval = 5 * time.Millisecond

// awaitTopologies is the boot barrier's poll: for each peer in shard order it
// probes GET /v1/admin/topology every peerPollInterval until the peer
// answers, and hands the answer to check, whose error ends the barrier. Each
// probe is bound to ctx, so a worker that accepts and never answers cannot
// outlast it.
func awaitTopologies(ctx context.Context, client *http.Client, peers []string, check func(s int, topo httpapi.TopologyResponse) error) error {
	for s, peer := range peers {
		over, err := retry(ctx, time.Time{}, peerPollInterval, func() (fwdClass, error) {
			var topo httpapi.TopologyResponse
			if class, err := control(ctx, client, peer+"/v1/admin/topology", "", nil, &topo); class != fwdOK {
				return class, err
			}
			if err := check(s, topo); err != nil {
				return fwdTerminal, err
			}
			return fwdOK, nil
		})
		switch {
		case over:
			return fmt.Errorf("shard: waiting for shard %d (%s): %w", s, peer, ctx.Err())
		case err != nil:
			return err
		}
	}
	return nil
}

// AwaitPeers blocks until every worker answers its topology endpoint with the
// router's assignment digest, its shard index and the shard count, or ctx
// expires — the boot barrier for a router built over an assignment it
// planned itself. A router that adopts its workers' assignment runs
// AdoptAssignment instead.
func (rt *Router) AwaitPeers(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(rt.ctx, cancel)() // Close ends the barrier too
	want := fmt.Sprintf("%016x", rt.assign.Digest())
	return awaitTopologies(ctx, rt.client, rt.peers, func(s int, topo httpapi.TopologyResponse) error {
		if topo.Digest != want || topo.Shard != s || topo.Shards != len(rt.peers) {
			return fmt.Errorf(
				"shard: %s: peer %s reports shard %d/%d with assignment digest %s, this router planned shard %d/%d with digest %s; all processes must share the graph, λa and shard count",
				httpapi.CodeShardMismatch, rt.peers[s], topo.Shard, topo.Shards, topo.Digest, s, len(rt.peers), want)
		}
		return nil
	})
}

// AdoptAssignment is a router's boot barrier: it waits, as AwaitPeers does,
// until every peer answers its topology endpoint, then returns the routing
// table the workers planned, so the router never builds the author graph. It
// refuses with shard_mismatch unless every peer reports inputs (the engine
// inputs fingerprint the router computed from its own config), its own shard
// index, len(peers) shards and one shared digest, and unless the table
// fetched from shard 0's GET /v1/shard/assignment rebuilds (FromTable) to
// len(peers) shards and that digest. The returned assignment records
// inputs, and a router built on it refuses, in its resync, a worker that
// comes back reporting other inputs. A nil client uses one with a 30s
// timeout; ctx bounds every request.
func AdoptAssignment(ctx context.Context, client *http.Client, peers []string, inputs string) (*Assignment, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("shard: no peers to adopt an assignment from")
	}
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var digest string
	err := awaitTopologies(ctx, client, peers, func(s int, topo httpapi.TopologyResponse) error {
		switch {
		case topo.Inputs == "":
			return fmt.Errorf("shard: %s: peer %s reports no engine inputs fingerprint; the router and its workers must run the same firehosed build",
				httpapi.CodeShardMismatch, peers[s])
		case topo.Inputs != inputs:
			return fmt.Errorf("shard: %s: peer %s was started over engine inputs %.16s…, this router over %.16s…; every process must share the graph (followees_path, or seed and authors), lambda_a, algorithm, lambda_c, lambda_t_millis and index",
				httpapi.CodeShardMismatch, peers[s], topo.Inputs, inputs)
		case topo.Shard != s || topo.Shards != len(peers):
			return fmt.Errorf("shard: %s: peer %s reports shard %d/%d, this router lists it as shard %d/%d",
				httpapi.CodeShardMismatch, peers[s], topo.Shard, topo.Shards, s, len(peers))
		case s > 0 && topo.Digest != digest:
			return fmt.Errorf("shard: %s: peer %s reports assignment digest %s, shard 0 (%s) reports %s; the workers planned different routing tables",
				httpapi.CodeShardMismatch, peers[s], topo.Digest, peers[0], digest)
		}
		digest = topo.Digest
		return nil
	})
	if err != nil {
		return nil, err
	}
	table, err := fetchTable(ctx, client, peers[0])
	if err != nil {
		return nil, err
	}
	a, err := FromTable(table)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: peer %s served an invalid assignment table: %w", httpapi.CodeShardMismatch, peers[0], err)
	}
	if a.NumShards() != len(peers) {
		return nil, fmt.Errorf("shard: %s: peer %s served an assignment table for %d shards, this router has %d peers",
			httpapi.CodeShardMismatch, peers[0], a.NumShards(), len(peers))
	}
	if got := fmt.Sprintf("%016x", a.Digest()); got != digest {
		return nil, fmt.Errorf("shard: %s: the assignment table from peer %s rebuilds to digest %s, the workers report %s",
			httpapi.CodeShardMismatch, peers[0], got, digest)
	}
	a.inputs = inputs
	return a, nil
}

// fetchTable reads a worker's GET /v1/shard/assignment, retrying a failed
// request until ctx expires. A 404 or 405 is refused at once: that worker
// predates the endpoint, and waiting would not change its build.
func fetchTable(ctx context.Context, client *http.Client, peer string) (AssignmentTable, error) {
	var table AssignmentTable
	over, err := retry(ctx, time.Time{}, peerPollInterval, func() (fwdClass, error) {
		return control(ctx, client, peer+assignmentPath, "", nil, &table)
	})
	switch {
	case over:
		return table, fmt.Errorf("shard: fetching the assignment table from %s: %v: %w", peer, err, ctx.Err())
	case err != nil:
		return table, fmt.Errorf("shard: peer %s does not serve its assignment table: %w", peer, err)
	}
	return table, nil
}

// Topology is the router's GET /v1/admin/topology answer; install it with
// Server.SetTopologyProvider.
func (rt *Router) Topology() httpapi.TopologyResponse {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	resp := httpapi.TopologyResponse{
		Mode:                 "router",
		Shard:                -1,
		Shards:               len(rt.peers),
		Digest:               fmt.Sprintf("%016x", rt.assign.Digest()),
		Watermark:            rt.lastDone,
		CoordinatedWatermark: rt.ckptW,
	}
	for s, peer := range rt.peers {
		// expected(s), computed inline because Topology holds rt.mu.
		w := rt.base[s]
		if n := len(rt.pending[s]); n > 0 {
			w = rt.pending[s][n-1].ID
		}
		resp.PerShard = append(resp.PerShard, httpapi.ShardStatus{
			Shard:     s,
			Peer:      peer,
			Watermark: w,
			Pending:   len(rt.pending[s]),
		})
	}
	return resp
}

// MountMetrics registers the firehose_shard_* families, one series per shard,
// on the router's own /v1/metrics. Call it once, before serving traffic.
func (rt *Router) MountMetrics(srv *httpapi.Server) {
	perShard := func(pick func(st shardStats, pending int) metrics.Sample) metrics.Collector {
		return func() []metrics.Sample {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			out := make([]metrics.Sample, len(rt.peers))
			for s := range out {
				out[s] = pick(rt.stats[s], len(rt.pending[s]))
				out[s].Labels = []metrics.Label{{Name: "shard", Value: strconv.Itoa(s)}}
			}
			return out
		}
	}
	value := func(v uint64) metrics.Sample { return metrics.Sample{Value: float64(v)} }
	srv.RegisterMetric("firehose_shard_forward_seconds",
		"Router-side latency of one forward (a post, or a pipelined sub-batch) to a shard, recovery included.",
		metrics.KindHistogram, perShard(func(st shardStats, _ int) metrics.Sample { return metrics.Sample{Hist: st.forward} }))
	srv.RegisterMetric("firehose_shard_forward_bytes_total",
		"Frame bytes written to and read from each shard's stream.",
		metrics.KindCounter, perShard(func(st shardStats, _ int) metrics.Sample { return value(st.bytes) }))
	srv.RegisterMetric("firehose_shard_stream_dials_total",
		"Upgrade attempts for each shard's stream; more than one means the stream was dropped and redialled.",
		metrics.KindCounter, perShard(func(st shardStats, _ int) metrics.Sample { return value(st.dials) }))
	srv.RegisterMetric("firehose_shard_resyncs_total",
		"Rollback-and-replay recoveries of each shard.",
		metrics.KindCounter, perShard(func(st shardStats, _ int) metrics.Sample { return value(st.resyncs) }))
	srv.RegisterMetric("firehose_shard_pending_posts",
		fmt.Sprintf("Posts in each shard's replay buffer; a coordination round is forced when their sum reaches %d.", rt.maxPending),
		metrics.KindGauge, perShard(func(_ shardStats, pending int) metrics.Sample { return value(uint64(pending)) }))
}

// envelopeError is a worker's JSON error envelope as a Go error, keeping the
// machine code available to the retry classifier and the caller.
type envelopeError struct {
	status int
	code   string
	msg    string
}

func (e *envelopeError) Error() string {
	return fmt.Sprintf("worker answered %d %s: %s", e.status, e.code, e.msg)
}

// control is one control request from the router to a shard: bound to the
// router's lifetime and carrying its view of the shard's topology.
func (rt *Router) control(shard int, path string, body, out any) (fwdClass, error) {
	return control(rt.ctx, rt.client, rt.peers[shard]+path, formatTopology(rt.assign.Digest(), shard, len(rt.peers)), body, out)
}

// control sends one control request to a worker — a GET when body is nil,
// a JSON POST of body otherwise — with the TopologyHeader value topology
// (omitted when empty), bound to ctx. Every answer is classified by one
// rule: a 200 decodes into out; a 404 or 405 is terminal, as the stream
// dial treats it (the worker runs another build, and no retry changes
// that); an error envelope is classified by classifyRefusal; and a
// transport failure or a bad body is retried. A control request has no
// stream to recover, so whatever a forward would resync is retried too.
func control(ctx context.Context, client *http.Client, url, topology string, body, out any) (fwdClass, error) {
	method, payload := http.MethodGet, io.Reader(http.NoBody)
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fwdTerminal, err
		}
		method, payload = http.MethodPost, bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, payload)
	if err != nil {
		return fwdTerminal, err
	}
	req.Header.Set("Content-Type", "application/json")
	if topology != "" {
		req.Header.Set(TopologyHeader, topology)
	}
	resp, err := client.Do(req)
	if err != nil {
		return fwdRetry, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if table, ok := out.(*AssignmentTable); ok {
			*table, err = decodeTable(resp.Body) // the one answer read under a size bound
		} else {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		if err != nil {
			return fwdRetry, fmt.Errorf("decoding the answer to %s %s: %w", method, url, err)
		}
		return fwdOK, nil
	case http.StatusNotFound, http.StatusMethodNotAllowed:
		return fwdTerminal, fmt.Errorf("%s %s answered %d; the router and its workers must run the same firehosed build",
			method, url, resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fwdRetry, err
	}
	class, err := classifyRefusal(resp.StatusCode, raw)
	if class != fwdTerminal {
		class = fwdRetry
	}
	return class, err
}

// classifyRefusal turns a worker's refusal — an HTTP error answer or a
// stream error reply, the envelope bytes are the same — into its retry class
// and a Go error.
func classifyRefusal(status int, raw []byte) (fwdClass, error) {
	var env httpapi.ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Code == "" {
		return fwdResync, fmt.Errorf("worker answered %d with no envelope", status)
	}
	ee := &envelopeError{status: status, code: env.Code, msg: env.Error}
	switch env.Code {
	case httpapi.CodeEngineClosed, httpapi.CodeShardDesync:
		// shard_desync: the worker's watermark disagrees with the replay
		// buffer — typically a crash-and-restart the router has not noticed.
		// Rollback-and-replay heals it.
		return fwdResync, ee
	default:
		return fwdTerminal, ee
	}
}
