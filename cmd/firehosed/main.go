// Command firehosed serves a multi-user stream diversification service over
// HTTP — the deployment sketched in the paper's Figure 1b, where a central
// engine diversifies the timeline of every user so clients need no
// post-processing.
//
// The daemon runs one connector pipeline: input → engine → outputs, declared
// in the JSON file named by its only flag, -config (see
// internal/connector.Config for the schema):
//
//	{
//	  "input":   {"type": "file", "path": "posts.ndjson", "tail": true},
//	  "engine":  {"algorithm": "unibin", "checkpoint": {"dir": "/var/lib/firehose"}},
//	  "outputs": [{"type": "sse"}, {"type": "webhook", "url": "https://sink.example/posts"}]
//	}
//
// Without -config it runs connector.DefaultConfig(): HTTP push ingest on
// :8080 → a 500-author synthetic graph → SSE. The config is strictly
// validated: unknown fields, fields foreign to a plugin type, and
// out-of-range values are all startup errors.
//
// Endpoints, all under /v1:
//
//	POST /v1/ingest {"author":12,"text":"...","timeMillis":1458000000000}
//	                → {"id":1,"delivered":[0,7,19]} (users whose timeline got the post)
//	                (the three push routes answer 503 ingest_disabled when a
//	                file input owns the stream, and on a shard worker)
//	POST /v1/ingest/batch
//	                {"posts":[{"author":12,...},...]} (time-ordered)
//	                → {"results":[{"id":1,"delivered":[...]},...]} in batch order
//	POST /v1/ingest/stream  Upgrade: firehose-ingest/1
//	                → a framed stream: one reply per post frame, as /v1/ingest
//	                answers it (internal/ingeststream documents the frames)
//	GET  /v1/timeline?user=7&n=20
//	                → {"user":7,"posts":[{...},...],"total":31}
//	GET  /v1/stats  → cost counters
//	GET  /v1/metrics → Prometheus text exposition (decision latency, worker
//	                queues, SSE, firehose_connector_* pipeline counters)
//	GET  /v1/healthz → ok
//	POST /v1/admin/checkpoint   → write a checkpoint now (needs a checkpoint dir)
//	GET  /v1/admin/checkpoints  → list retained checkpoints
//
// With a checkpoint directory the daemon restores at boot, writes a
// checkpoint at every interval tick and one at shutdown, and retains the
// newest N files. Boot keeps the newest checkpoint the input can resume at
// (for a file input, one whose watermark has an ack cursor; else a cold
// start) and rewinds a file input to it; a shard worker restores nothing, as
// its router rolls it back. The input's ack cursor only advances when a
// durable checkpoint covers the acked posts, so a SIGKILLed daemon replays
// the un-checkpointed suffix with identical ids and deliveries —
// at-least-once egress with the post id as the dedup key.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the input stops
// first, a final checkpoint is written (advancing the ack cursor), in-flight
// requests finish, open SSE streams are closed, the listener drains within a
// bounded timeout, and the outputs flush last.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/connector"
	"firehose/internal/core"
	"firehose/internal/corpusio"
	"firehose/internal/httpapi"
	"firehose/internal/shard"
	"firehose/internal/stream"
	"firehose/internal/twittergen"
)

func main() {
	cfg, err := loadConfig(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "firehosed: %v\n", err)
		os.Exit(2)
	}
	if err := runDaemon(cfg); err != nil {
		log.Fatalf("firehosed: %v", err)
	}
}

// loadConfig turns a command line into a validated pipeline config. The only
// flag is -config <file>; without it the daemon runs connector.DefaultConfig().
func loadConfig(args []string) (*connector.Config, error) {
	fs := flag.NewFlagSet("firehosed", flag.ContinueOnError)
	configPath := fs.String("config", "", "pipeline config file (JSON: input → engine → outputs; see internal/connector.Config); default: HTTP push → SSE on :8080")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *configPath == "" {
		return connector.DefaultConfig(), nil
	}
	return connector.Load(*configPath)
}

// buildGraph loads or generates the follower graph: followee vectors plus the
// derived subscription lists. A non-nil sum receives the followees file's
// bytes as they are decoded.
func buildGraph(ec *connector.EngineConfig, sum hash.Hash) (fs, subs [][]int32, err error) {
	if ec.FolloweesPath != "" {
		f, err := os.Open(ec.FolloweesPath)
		if err != nil {
			return nil, nil, err
		}
		var r io.Reader = f
		if sum != nil {
			r = io.TeeReader(f, sum)
		}
		fs, err = corpusio.ReadFollowees(r)
		if err == nil && sum != nil {
			_, err = io.Copy(sum, f) // any bytes the decoder left unread
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		return fs, subscriptions(fs), nil
	}
	rng := rand.New(rand.NewSource(ec.Seed))
	social, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(ec.Authors))
	if err != nil {
		return nil, nil, err
	}
	return social.Followees, social.Subscriptions(), nil
}

// subscriptions derives each author's subscription list as
// twittergen.SocialGraph.Subscriptions does: its followees that are
// themselves authors, deduplicated, in file order. Negative ids are kept so
// that the engine refuses them by name, as it does any author outside the
// graph.
func subscriptions(fs [][]int32) [][]int32 {
	subs := make([][]int32, len(fs))
	last := make([]int32, len(fs)) // last[t] == a+1: t is already in subs[a]
	for a, followed := range fs {
		for _, t := range followed {
			switch {
			case t < 0:
				subs[a] = append(subs[a], t)
			case int(t) < len(fs) && last[t] != int32(a)+1:
				last[t] = int32(a) + 1
				subs[a] = append(subs[a], t)
			}
		}
	}
	return subs
}

// workerSubscriptions restricts subs to the authors shard index owns: the
// router sends a worker only its own authors' posts, so the worker builds,
// holds and checkpoints the solver state of those authors alone. Authors
// outside the graph stay, so that the engine refuses them by name as a
// single node does.
func workerSubscriptions(g *authorsim.Graph, subs [][]int32, assign *shard.Assignment, index int) [][]int32 {
	return core.RestrictSubscriptions(subs, func(a int32) bool {
		return !g.Contains(a) || assign.ShardOf(a) == index
	})
}

// engineThresholds parses and validates the configured thresholds.
func engineThresholds(ec *connector.EngineConfig) (core.Thresholds, error) {
	pol, err := core.ParseIndexPolicy(ec.Index)
	if err != nil {
		return core.Thresholds{}, err
	}
	th := core.Thresholds{
		LambdaC: ec.LambdaC,
		LambdaT: ec.LambdaTMillis,
		LambdaA: ec.LambdaA,
		Index:   pol,
	}
	if err := th.Validate(); err != nil {
		// engine.index "on" at an infeasible λc (e.g. the paper default 18) fails
		// here with the Section 3 explanation instead of deep in a constructor.
		return core.Thresholds{}, err
	}
	return th, nil
}

// engineInputs builds what every engine shape is constructed from: the
// validated thresholds, the author similarity graph G(λa) at the configured
// λa, and the subscription lists. With fingerprint set it also returns the
// inputs fingerprint, hashing a followees file inside the read that decodes
// it.
func engineInputs(ec *connector.EngineConfig, fingerprint bool) (core.Thresholds, *authorsim.Graph, [][]int32, string, error) {
	th, err := engineThresholds(ec)
	if err != nil {
		return core.Thresholds{}, nil, nil, "", err
	}
	var sum hash.Hash
	if fingerprint && ec.FolloweesPath != "" {
		sum = sha256.New()
	}
	fs, subs, err := buildGraph(ec, sum)
	if err != nil {
		return core.Thresholds{}, nil, nil, "", err
	}
	var inputs string
	if fingerprint {
		inputs = inputsFingerprint(ec, sum)
	}
	// subs was derived from fs in file order already, so the join may sort
	// the decoded rows in place instead of beside a sorted copy.
	return th, authorsim.BuildGraphInPlace(fs, th.LambdaA), subs, inputs, nil
}

// routerInputs is a router's part of engineInputs: the validated thresholds
// and the inputs fingerprint, reading a followees file only to hash it. A
// router decides no post, so it builds no graph; it adopts its workers'
// routing table at the boot barrier instead.
func routerInputs(ec *connector.EngineConfig) (core.Thresholds, string, error) {
	th, err := engineThresholds(ec)
	if err != nil {
		return core.Thresholds{}, "", err
	}
	var sum hash.Hash
	if ec.FolloweesPath != "" {
		f, err := os.Open(ec.FolloweesPath)
		if err != nil {
			return core.Thresholds{}, "", err
		}
		sum = sha256.New()
		_, err = io.Copy(sum, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return core.Thresholds{}, "", err
		}
	}
	return th, inputsFingerprint(ec, sum), nil
}

// inputsFingerprint is the SHA-256 a shard worker reports and its router
// requires at the boot barrier: over the graph source — followees holds the
// followees file's bytes, nil means the graph is generated from seed and
// authors — and the thresholds and algorithm every process must share, as
// 64 hex digits.
func inputsFingerprint(ec *connector.EngineConfig, followees hash.Hash) string {
	h := sha256.New()
	if followees != nil {
		fmt.Fprintf(h, "followees %x\n", followees.Sum(nil))
	} else {
		fmt.Fprintf(h, "generated %d %d\n", ec.Seed, ec.Authors)
	}
	fmt.Fprintf(h, "lambda_a %016x\nalgorithm %s\nlambda_c %d\nlambda_t_millis %d\nindex %s\n",
		math.Float64bits(ec.LambdaA), ec.Algorithm, ec.LambdaC, ec.LambdaTMillis, ec.Index)
	return hex.EncodeToString(h.Sum(nil))
}

func runDaemon(cfg *connector.Config) error {
	var alg core.Algorithm
	switch cfg.Engine.Algorithm {
	case "unibin":
		alg = core.AlgUniBin
	case "neighborbin":
		alg = core.AlgNeighborBin
	case "cliquebin":
		alg = core.AlgCliqueBin
	default:
		return fmt.Errorf("unknown algorithm %q", cfg.Engine.Algorithm)
	}
	var (
		th     core.Thresholds
		g      *authorsim.Graph
		subs   [][]int32
		inputs string
		err    error
	)
	if cfg.Router != nil {
		th, inputs, err = routerInputs(&cfg.Engine)
	} else {
		th, g, subs, inputs, err = engineInputs(&cfg.Engine, cfg.Shard != nil)
	}
	if err != nil {
		return err
	}
	var adPol *core.AdaptivePolicy
	if cfg.Engine.Adaptive.BudgetPosts > 0 {
		a := cfg.Engine.Adaptive
		adPol = &core.AdaptivePolicy{
			BudgetPosts:  a.BudgetPosts,
			WindowMillis: a.WindowMillis,
			MaxLambdaC:   a.MaxLambdaC,
			MaxLambdaT:   a.MaxLambdaTMillis,
			StepLambdaC:  a.StepLambdaC,
			StepLambdaT:  a.StepLambdaTMillis,
		}
		if err := adPol.Validate(th); err != nil {
			return err
		}
	}

	// A shard worker plans the author-partitioned assignment from its own
	// config; a router adopts its workers' at the boot barrier below. The
	// digest must match on every process, which the shard layer verifies on
	// each cross-process request.
	var assign *shard.Assignment
	if cfg.Shard != nil {
		if assign, err = shard.Plan(g, cfg.Shard.Count); err != nil {
			return err
		}
		subs = workerSubscriptions(g, subs, assign, cfg.Shard.Index)
	}

	nw := cfg.Engine.Workers
	if nw == 0 {
		nw = runtime.NumCPU()
	}
	// resume may build several engines before it keeps one, so construction
	// is a closure that also records what it built for the boot log line.
	var (
		rtr             *shard.Router // router mode: the kept router (resume keeps the last server it builds)
		engine, solvers string
	)
	buildAPI := func() (*httpapi.Server, error) {
		if cfg.Router != nil {
			r, err := shard.NewRouter(shard.RouterOptions{Peers: cfg.Router.Peers, Assignment: assign})
			if err != nil {
				return nil, err
			}
			srv := httpapi.NewFromEngine(r)
			srv.SetTopology(-1, assign.NumShards(), assign.Digest())
			srv.SetTopologyProvider(r.Topology)
			r.MountMetrics(srv)
			rtr, engine, solvers = r, r.Name(), fmt.Sprintf("%d shards", assign.NumShards())
			return srv, nil
		}
		if nw > 1 {
			pe, err := stream.NewParallelMultiEngineOpts(alg, g, subs, th, nw, stream.ParallelOptions{Adaptive: adPol})
			if err != nil {
				return nil, err
			}
			engine, solvers = pe.Name(), fmt.Sprintf("%d workers", pe.NumWorkers())
			return httpapi.NewParallel(pe), nil
		}
		md, err := core.NewSharedMultiUser(alg, g, subs, th)
		if err != nil {
			return nil, err
		}
		var solver core.MultiDiversifier = md
		if adPol != nil {
			solver, err = core.NewAdaptiveMultiUser(md, g, th, *adPol)
			if err != nil {
				return nil, err
			}
		}
		engine, solvers = solver.Name(), "sequential"
		return httpapi.New(solver), nil
	}

	// The input connects before resume: a durable input's ack cursors decide
	// which checkpoint the daemon may resume from.
	input, pacer, err := connector.BuildInput(cfg.Input)
	if err != nil {
		return err
	}
	if input != nil {
		if err := input.Connect(context.Background()); err != nil {
			return err
		}
		defer func() { _ = input.Close() }()
	}

	// A router blocks until every worker answers with its own inputs
	// fingerprint and one assignment digest, then adopts the workers' routing
	// table — a misconfigured peer set is refused before any restore or
	// forward touches it.
	if cfg.Router != nil {
		awaitCtx, cancelAwait := context.WithTimeout(context.Background(), 60*time.Second)
		assign, err = shard.AdoptAssignment(awaitCtx, nil, cfg.Router.Peers, inputs)
		cancelAwait()
		if err != nil {
			return err
		}
	}

	ckptDir := cfg.Engine.Checkpoint.Dir
	api, err := resume(ckptDir, cfg.Shard != nil, input, buildAPI)
	if err != nil {
		return err
	}
	var wk *shard.Worker
	if cfg.Shard != nil {
		wk, err = shard.NewWorker(shard.WorkerOptions{
			Server:        api,
			Shard:         cfg.Shard.Index,
			Assignment:    assign,
			Inputs:        inputs,
			CheckpointDir: ckptDir,
			Retain:        cfg.Engine.Checkpoint.Retain,
		})
		if err != nil {
			return err
		}
		engine = fmt.Sprintf("shard %d/%d worker over %s", cfg.Shard.Index, assign.NumShards(), engine)
	}
	if cfg.HTTP.PProf {
		api.EnablePProf()
	}

	// Egress: every delivery (from HTTP push or the pipeline runner) routes
	// through the dispatcher; the "sse" output feeds the broker the delivery
	// hook used to feed directly.
	publishSSE := func(d connector.Delivery) {
		api.PublishSSE(httpapi.TimelinePost{ID: d.ID, Author: d.Author, TimeMillis: d.TimeMillis, Text: d.Text}, d.Users)
	}
	dispatch := connector.NewDispatcher()
	for _, oc := range cfg.Outputs {
		out, err := connector.BuildOutput(oc, publishSSE)
		if err != nil {
			return err
		}
		dispatch.Add(string(oc.Type), out)
	}
	if err := dispatch.Connect(context.Background()); err != nil {
		return err
	}
	api.SetDeliveryHook(func(p httpapi.TimelinePost, users []int32) {
		dispatch.Dispatch(context.Background(), connector.Delivery{
			ID: p.ID, Author: p.Author, TimeMillis: p.TimeMillis, Text: p.Text, Users: users,
		})
	})

	pipe := &connector.Pipeline{Dispatch: dispatch}
	if input != nil {
		runner, err := connector.NewRunner("input:"+string(cfg.Input.Type), input, api.IngestPost, connector.RunnerOptions{Pacer: pacer})
		if err != nil {
			return err
		}
		pipe.Runner = runner
		// The pipeline owns the stream's time order; interleaved HTTP pushes
		// would corrupt it.
		api.DisableHTTPIngest()
	}
	api.MountConnectorMetrics(pipe)

	// A shard worker runs no checkpoint manager of its own: its tagged
	// checkpoints are written on router command, and the router's manager is
	// the one whose post-write hook advances the ack cursor.
	var ckptMgr *checkpoint.Manager
	if ckptDir != "" && cfg.Shard == nil {
		m, err := checkpoint.NewManager(ckptDir, cfg.Engine.Checkpoint.Retain, api.Snapshot)
		if err != nil {
			return err
		}
		// After every durable checkpoint, ack the input up to the captured
		// watermark — the at-least-once pivot.
		m.SetOnCheckpoint(func(checkpoint.File) {
			pipe.Acknowledge(api.SnapshotWatermark())
		})
		ckptMgr = m
		api.EnableCheckpoints(m)
		if rtr != nil {
			// A full replay buffer triggers the same coordination round a
			// periodic checkpoint runs, so router memory stays bounded even
			// between interval ticks (or with no interval configured at all).
			rtr.SetPendingFullHook(func() {
				if _, err := m.Checkpoint(); err != nil {
					log.Printf("firehosed: buffers-full coordination: %v", err)
				}
			})
		}
	}

	server := &http.Server{
		Addr:              cfg.HTTP.Addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// WriteTimeout stays 0: GET /v1/stream holds SSE connections open
		// indefinitely; a server-wide write deadline would sever them.
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if rtr != nil {
		// Seed the rollback target before any traffic: a coordination round
		// at the current watermark gives every worker a tagged checkpoint to
		// restore from even before the first periodic round.
		if err := rtr.InitialCoordination(); err != nil {
			return err
		}
	}

	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	name := cfg.Name
	if name == "" {
		name = "pipeline"
	}
	var authors int
	if g != nil {
		authors = g.NumAuthors()
	} else {
		authors = assign.NumAuthors()
	}
	log.Printf("firehosed: %s: %s → %s (%s) → %d output(s) over %d authors/users on %s",
		name, cfg.Input.Type, engine, solvers, len(cfg.Outputs), authors, cfg.HTTP.Addr)

	if pipe.Runner != nil {
		go func() {
			if err := pipe.Runner.Run(context.Background()); err != nil {
				log.Printf("firehosed: input runner: %v", err)
			}
		}()
	}

	if ckptMgr != nil && cfg.Engine.Checkpoint.IntervalMillis > 0 {
		go func() {
			ticker := time.NewTicker(time.Duration(cfg.Engine.Checkpoint.IntervalMillis) * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if f, err := ckptMgr.Checkpoint(); err != nil {
						log.Printf("firehosed: periodic checkpoint: %v", err)
					} else {
						log.Printf("firehosed: wrote checkpoint %d (%d bytes)", f.Seq, f.Size)
					}
				}
			}
		}()
	}

	select {
	case err := <-errCh:
		// Listener failed before any shutdown signal.
		return err
	case <-ctx.Done():
	}
	stop()
	drain := time.Duration(cfg.HTTP.DrainMillis) * time.Millisecond
	log.Printf("firehosed: shutting down (draining up to %v)", drain)

	// Shutdown order matters: stop the input first so no post enters the
	// engine after the final checkpoint below (posts ingested after it would
	// be acked by a checkpoint that does not contain them on the next ack —
	// they would replay, which is correct, but stopping intake first keeps
	// the final state exact). Then checkpoint (the hook acks the input),
	// then close the engine and drain the listener, and flush the outputs
	// last so every delivery the engine produced gets its transmit attempt.
	if pipe.Runner != nil {
		pipe.Runner.Stop()
	}
	if ckptMgr != nil {
		if f, err := ckptMgr.Checkpoint(); err != nil {
			log.Printf("firehosed: shutdown checkpoint: %v", err)
		} else {
			log.Printf("firehosed: wrote shutdown checkpoint %d", f.Seq)
		}
	}

	// Release the SSE streams first — Shutdown waits for active handlers,
	// and /v1/stream handlers only return once their subscription closes. A
	// shard worker also severs the router's stream, which Shutdown cannot see
	// (the router resyncs if it restarts us).
	if wk != nil {
		_ = wk.Close()
	}
	api.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		log.Printf("firehosed: forced shutdown: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("firehosed: serve: %v", err)
	}
	if err := dispatch.Close(); err != nil {
		log.Printf("firehosed: output flush: %v", err)
	}
	log.Printf("firehosed: stopped")
	return nil
}

// resume is the daemon's one boot-time resume rule. The candidates are the
// checkpoints in dir, newest first; a shard worker, or a daemon without a
// directory, has none — a worker restores only on its router's command, or
// it would disagree with the router about the replay suffix. Each attempt
// restores into a fresh server from build (Restore replaces state; it cannot
// be peeked). An attempt is kept unless in is a file input whose ack sidecar
// holds no cursor for the restored watermark: resuming such an input at any
// other offset would lose posts or replay checkpointed ones under fresh ids.
// With no attempt kept the server starts cold at watermark 0. Every server
// not kept is closed. A file input is then rewound once, to the kept
// watermark, so it replays exactly the suffix no kept checkpoint covers.
// Before any of that, resume sweeps dir of the temp files of checkpoint
// writes a killed process left behind; every daemon shape boots through
// here before it writes to dir.
func resume(dir string, worker bool, in connector.Input, build func() (*httpapi.Server, error)) (*httpapi.Server, error) {
	var files []checkpoint.File
	if dir != "" {
		if err := checkpoint.SweepTemp(dir); err != nil {
			return nil, err
		}
		if !worker {
			var err error
			if files, err = checkpoint.List(dir); err != nil {
				return nil, err
			}
		}
	}
	fileIn, _ := in.(*connector.FileInput)
	var api *httpapi.Server
	for i := len(files) - 1; i >= 0 && api == nil; i-- {
		f := files[i]
		srv, err := build()
		if err != nil {
			return nil, err
		}
		fh, err := os.Open(f.Path)
		if err == nil {
			err = srv.Restore(fh)
			if cerr := fh.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("restoring %s: %w", f.Path, err)
		}
		w := srv.SnapshotWatermark()
		if fileIn != nil {
			if _, ok := fileIn.CursorFor(w); !ok {
				log.Printf("firehosed: checkpoint %d has no matching ack cursor (watermark %d); trying older", f.Seq, w)
				srv.Close()
				continue
			}
		}
		log.Printf("firehosed: restored checkpoint %d (%s) at watermark %d", f.Seq, f.Path, w)
		api = srv
	}
	if api == nil {
		var err error
		if api, err = build(); err != nil {
			return nil, err
		}
		if dir != "" && !worker {
			log.Printf("firehosed: no checkpoint in %s to resume from, cold boot", dir)
		}
	}
	if fileIn != nil {
		if err := fileIn.Rewind(api.SnapshotWatermark()); err != nil {
			api.Close()
			return nil, err
		}
	}
	return api, nil
}
