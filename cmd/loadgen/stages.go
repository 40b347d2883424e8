package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/core"
	"firehose/internal/corpusio"
	"firehose/internal/httpapi"
	"firehose/internal/metrics"
	"firehose/internal/shard"
	"firehose/internal/simhash"
	"firehose/internal/stream"
	"firehose/internal/textnorm"
)

// This file holds the direct stage calls: where the seam between two layers
// is a concrete type (core.NewPost's fingerprint pipeline, the parallel
// engine inside httpapi.NewParallel, the checkpoint writer), the layer is
// called directly over the traced prefix and timed around the call.

// stageCap bounds the posts a stage call replays; past the first λt window
// the per-post cost of a stage no longer depends on how far it runs.
const stageCap = 30_000

// stages are the direct measurements, per post unless the name says
// otherwise.
type stages struct {
	tokensNS, hashNS, coreOfferNS                   float64
	seqOfferNS, seqBatchNS, parOfferNS, parBatchNS  float64
	parOfferAllocs, parOfferBytes, queueWaitP50US   float64
	ingestNS, batchNS, ingestAllocs                 float64
	snapshotMS, writeMS, checkpointBytes, restoreMS float64
	buildGraphS, readFolloweesMS, shardSkew, planMS float64
	forwardBytes                                    int64
}

// sink keeps results the stage loops compute alive.
var sink uint64

func perPostNS(start time.Time, n int) float64 { return float64(time.Since(start)) / float64(n) }

const stageBatch = 256

func stageCalls(ctx context.Context, in *inputs, prefix []post, h *hosted, dir string) (*stages, error) {
	ps := prefix[:min(len(prefix), stageCap)/stageBatch*stageBatch]
	n := len(ps)
	st := &stages{}

	// textnorm + simhash: the two halves of core.NewPost's fingerprint.
	tokens := make([][]string, n)
	start := time.Now()
	for i, p := range ps {
		tokens[i] = textnorm.NormalizedTokens(p.Text)
	}
	st.tokensNS = perPostNS(start, n)
	start = time.Now()
	for _, t := range tokens {
		sink ^= uint64(simhash.Hash(t))
	}
	st.hashNS = perPostNS(start, n)

	cps := make([]*core.Post, n)
	for i, p := range ps {
		cps[i] = core.NewPost(uint64(i+1), p.Author, p.TimeMillis, p.Text)
	}

	// core: the solver alone.
	md, err := newSolver(in)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for _, p := range cps {
		sink += uint64(len(md.Offer(p)))
	}
	st.coreOfferNS = perPostNS(start, n)

	// stream, sequential engine: the single-thread baseline.
	if md, err = newSolver(in); err != nil {
		return nil, err
	}
	seq := stream.NewMultiEngine(md)
	start = time.Now()
	for _, p := range cps {
		if _, err := seq.Offer(p); err != nil {
			return nil, err
		}
	}
	st.seqOfferNS = perPostNS(start, n)
	seq.Close()
	if md, err = newSolver(in); err != nil {
		return nil, err
	}
	seq = stream.NewMultiEngine(md)
	start = time.Now()
	for i := 0; i < n; i += stageBatch {
		if _, err := seq.OfferBatch(cps[i : i+stageBatch]); err != nil {
			return nil, err
		}
	}
	st.seqBatchNS = perPostNS(start, n)
	seq.Close()

	// stream, parallel engine: enqueue → ticket join per post, then per batch.
	pe, err := newParallel(in)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	for _, p := range cps {
		t, err := pe.Offer(p)
		if err != nil {
			return nil, err
		}
		sink += uint64(len(t.Users()))
	}
	st.parOfferNS = perPostNS(start, n)
	runtime.ReadMemStats(&after)
	st.parOfferAllocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	st.parOfferBytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	var waits []metrics.Histogram
	for _, ws := range pe.WorkerSnapshots() {
		waits = append(waits, ws.QueueWait)
	}
	merged := metrics.MergeHistograms(waits...)
	st.queueWaitP50US = float64(merged.Quantile(0.5)) / float64(time.Microsecond)
	pe.Close()
	if pe, err = newParallel(in); err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < n; i += stageBatch {
		bt, err := pe.OfferBatch(cps[i : i+stageBatch])
		if err != nil {
			return nil, err
		}
		sink += uint64(len(bt.Users()))
	}
	st.parBatchNS = perPostNS(start, n)
	pe.Close()

	// httpapi: the handler called directly, no socket — JSON decode, id
	// allocation, fingerprint, sequential engine, JSON encode.
	if st.ingestNS, st.ingestAllocs, err = handlerStage(in, ps, 1, "/v1/ingest"); err != nil {
		return nil, err
	}
	if st.batchNS, _, err = handlerStage(in, ps, stageBatch, "/v1/ingest/batch"); err != nil {
		return nil, err
	}

	// checkpoint: on the traced shape's own state after the prefix.
	// Snapshot to io.Discard is the ingest pause; the durable write adds
	// fsync + rename.
	var snaps []time.Duration
	for i := 0; i < 3; i++ {
		start = time.Now()
		if err := h.state.Snapshot(io.Discard); err != nil {
			return nil, err
		}
		snaps = append(snaps, time.Since(start))
	}
	st.snapshotMS = ms(quantile(snaps, 0.5))
	ckptDir, err := os.MkdirTemp(dir, "stage-ckpt-")
	if err != nil {
		return nil, err
	}
	start = time.Now()
	f, err := checkpoint.Write(ckptDir, h.state.Snapshot)
	if err != nil {
		return nil, err
	}
	st.writeMS = max(ms(time.Since(start))-st.snapshotMS, 0)
	st.checkpointBytes = float64(f.Size)
	data, err := os.ReadFile(f.Path)
	if err != nil {
		return nil, err
	}
	fresh, err := h.freshState()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := fresh.Restore(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	st.restoreMS = ms(time.Since(start))
	fresh.Close()

	// Set-up work: what a booting daemon does before it is healthy.
	start = time.Now()
	file, err := os.Open(in.followeesPath)
	if err != nil {
		return nil, err
	}
	followees, err := corpusio.ReadFollowees(file)
	_ = file.Close() // read-only
	if err != nil {
		return nil, err
	}
	st.readFolloweesMS = ms(time.Since(start))
	start = time.Now()
	g := authorsim.BuildGraph(authorsim.NewVectors(followees), lambdaA)
	st.buildGraphS = time.Since(start).Seconds()

	// shard: the plan and how evenly it spreads this workload's posts.
	start = time.Now()
	assign, err := shard.Plan(g, 2)
	if err != nil {
		return nil, err
	}
	st.planMS = ms(time.Since(start))
	load := make([]int, assign.NumShards())
	for _, p := range prefix {
		load[assign.ShardOf(p.Author)]++
	}
	busiest := 0
	for _, l := range load {
		busiest = max(busiest, l)
	}
	st.shardSkew = float64(busiest) * float64(len(load)) / float64(len(prefix))
	if h.transport != nil {
		st.forwardBytes = h.transport.moved()
	}
	return st, ctx.Err()
}

// handlerStage drives a fresh sequential server's handler directly with
// pre-built requests and recorders, so only ServeHTTP is timed.
func handlerStage(in *inputs, ps []post, batch int, path string) (nsPerPost, allocsPerPost float64, err error) {
	md, err := newSolver(in)
	if err != nil {
		return 0, 0, err
	}
	srv := httpapi.New(md)
	defer srv.Close()
	bodies, err := requestBodies(ps, batch)
	if err != nil {
		return 0, 0, err
	}
	reqs := make([]*http.Request, len(bodies))
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	for i, b := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range reqs {
		srv.ServeHTTP(recs[i], reqs[i])
	}
	nsPerPost = perPostNS(start, len(ps))
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("handler stage %s: request %d: status %d: %s", path, i+1, rec.Code, rec.Body)
		}
	}
	return nsPerPost, float64(after.Mallocs-before.Mallocs) / float64(len(ps)), nil
}
