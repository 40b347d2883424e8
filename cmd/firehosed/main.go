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
//	                → {"delivered":[0,7,19]} (users whose timeline got the post)
//	                (503 ingest_disabled when a file/tcp input owns the stream)
//	POST /v1/ingest/batch
//	                {"posts":[{"author":12,...},...]} (time-ordered)
//	                → {"results":[{"id":1,"delivered":[...]},...]} in batch order
//	GET  /v1/timeline?user=7&n=20
//	                → {"user":7,"posts":[{...},...]}
//	GET  /v1/stats  → cost counters
//	GET  /v1/metrics → Prometheus text exposition (decision latency, worker
//	                queues, SSE, firehose_connector_* pipeline counters)
//	GET  /v1/healthz → ok
//	POST /v1/admin/checkpoint   → write a checkpoint now (needs a checkpoint dir)
//	GET  /v1/admin/checkpoints  → list retained checkpoints
//
// With a checkpoint directory the daemon restores at boot, writes a
// checkpoint at every interval tick and one at shutdown, and retains the
// newest N files. Durable inputs (file) resume exactly at the restored
// checkpoint's watermark: the input's ack cursor only advances when a
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
	"errors"
	"flag"
	"fmt"
	"log"
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
// derived subscription lists.
func buildGraph(ec *connector.EngineConfig) (fs, subs [][]int32, err error) {
	if ec.FolloweesPath != "" {
		f, err := os.Open(ec.FolloweesPath)
		if err != nil {
			return nil, nil, err
		}
		fs, err = corpusio.ReadFollowees(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		// Subscriptions: followees that are themselves authors.
		n := int32(len(fs))
		subs = make([][]int32, len(fs))
		for a, followed := range fs {
			seen := make(map[int32]bool, len(followed))
			for _, t := range followed {
				if t < n && !seen[t] {
					seen[t] = true
					subs[a] = append(subs[a], t)
				}
			}
		}
		return fs, subs, nil
	}
	rng := rand.New(rand.NewSource(ec.Seed))
	social, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(ec.Authors))
	if err != nil {
		return nil, nil, err
	}
	return social.Followees, social.Subscriptions(), nil
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
	pol, err := core.ParseIndexPolicy(cfg.Engine.Index)
	if err != nil {
		return err
	}
	fs, subs, err := buildGraph(&cfg.Engine)
	if err != nil {
		return err
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(fs), 0.7)
	th := core.Thresholds{
		LambdaC: cfg.Engine.LambdaC,
		LambdaT: cfg.Engine.LambdaTMillis,
		LambdaA: cfg.Engine.LambdaA,
		Index:   pol,
	}
	if err := th.Validate(); err != nil {
		// engine.index "on" at an infeasible λc (e.g. the paper default 18) fails
		// here with the Section 3 explanation instead of deep in a constructor.
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

	// A sharded process — worker or router — plans the author-partitioned
	// assignment from its own config; the digest it derives must match every
	// peer's, which the shard layer verifies on each cross-process request.
	var assign *shard.Assignment
	if cfg.Shard != nil || cfg.Router != nil {
		n := 0
		if cfg.Shard != nil {
			n = cfg.Shard.Count
		} else {
			n = len(cfg.Router.Peers)
		}
		if assign, err = shard.Plan(g, n); err != nil {
			return err
		}
	}

	nw := cfg.Engine.Workers
	if nw == 0 {
		nw = runtime.NumCPU()
	}
	// The restore-matching loop for durable inputs may need several fresh
	// engines, so construction is a closure, not straight-line code.
	var rtr *shard.Router // router mode: the most recently built router engine
	buildAPI := func() (*httpapi.Server, string, string, error) {
		if cfg.Router != nil {
			r, err := shard.NewRouter(shard.RouterOptions{Peers: cfg.Router.Peers, Assignment: assign})
			if err != nil {
				return nil, "", "", err
			}
			srv := httpapi.NewFromEngine(r)
			srv.SetTopology(-1, assign.NumShards(), assign.Digest())
			srv.SetTopologyProvider(r.Topology)
			r.MountMetrics(srv)
			rtr = r
			return srv, r.Name(), fmt.Sprintf("%d shards", assign.NumShards()), nil
		}
		if nw > 1 {
			pe, err := stream.NewParallelMultiEngineOpts(alg, g, subs, th, nw, stream.ParallelOptions{Adaptive: adPol})
			if err != nil {
				return nil, "", "", err
			}
			return httpapi.NewParallel(pe), pe.Name(), fmt.Sprintf("%d workers", pe.NumWorkers()), nil
		}
		md, err := core.NewSharedMultiUser(alg, g, subs, th)
		if err != nil {
			return nil, "", "", err
		}
		var solver core.MultiDiversifier = md
		if adPol != nil {
			solver, err = core.NewAdaptiveMultiUser(md, g, th, *adPol)
			if err != nil {
				return nil, "", "", err
			}
		}
		return httpapi.New(solver), solver.Name(), "sequential", nil
	}

	// The input connects before any restore: a durable input's ack cursors
	// decide which checkpoint the daemon may resume from.
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
	fileIn, _ := input.(*connector.FileInput)

	// A router blocks until every worker answers with the matching assignment
	// digest — a misconfigured peer set is refused before any restore or
	// forward touches it.
	if cfg.Router != nil {
		probe, err := shard.NewRouter(shard.RouterOptions{Peers: cfg.Router.Peers, Assignment: assign})
		if err != nil {
			return err
		}
		awaitCtx, cancelAwait := context.WithTimeout(context.Background(), 60*time.Second)
		err = probe.AwaitPeers(awaitCtx)
		cancelAwait()
		if err != nil {
			return err
		}
	}

	ckptDir := cfg.Engine.Checkpoint.Dir
	var (
		api     *httpapi.Server
		engine  string
		solvers string
	)
	switch {
	case cfg.Shard != nil:
		// Worker durability is router-coordinated: watermark-tagged
		// checkpoints are written and restored on router command, never
		// self-served at boot — a worker that restored on its own would
		// disagree with the router about the replay suffix.
		if api, engine, solvers, err = buildAPI(); err != nil {
			return err
		}
	case ckptDir != "" && fileIn != nil:
		// Durable input: resume is only correct at a (checkpoint, cursor)
		// pair that names the same watermark — an unmatched cursor would
		// either lose posts or replay checkpointed ones under fresh ids. Try
		// the retained checkpoints newest-first (a fresh engine per attempt;
		// Restore replaces state, it cannot be peeked) and fall back to a
		// cold boot replaying the whole file.
		files, err := checkpoint.List(ckptDir)
		if err != nil {
			return err
		}
		matched := false
		for i := len(files) - 1; i >= 0 && !matched; i-- {
			f := files[i]
			if api, engine, solvers, err = buildAPI(); err != nil {
				return err
			}
			fh, err := os.Open(f.Path)
			if err != nil {
				return err
			}
			err = api.Restore(fh)
			if cerr := fh.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("restoring %s: %w", f.Path, err)
			}
			w := api.SnapshotWatermark()
			if err := fileIn.Rewind(w); err == nil {
				log.Printf("firehosed: restored checkpoint %d (%s), resuming input at watermark %d", f.Seq, f.Path, w)
				matched = true
			} else {
				log.Printf("firehosed: checkpoint %d has no matching ack cursor (watermark %d); trying older", f.Seq, w)
			}
		}
		if !matched {
			if api, engine, solvers, err = buildAPI(); err != nil {
				return err
			}
			if err := fileIn.Rewind(0); err != nil {
				return err
			}
			log.Printf("firehosed: no checkpoint/ack-cursor match in %s, cold boot from the start of %s", ckptDir, cfg.Input.Path)
		}
	case ckptDir != "":
		if api, engine, solvers, err = buildAPI(); err != nil {
			return err
		}
		if f, ok, err := checkpoint.RestoreLatest(ckptDir, api.Restore); err != nil {
			return err
		} else if ok {
			log.Printf("firehosed: restored checkpoint %d (%s)", f.Seq, f.Path)
		} else {
			log.Printf("firehosed: no checkpoint in %s, cold boot", ckptDir)
		}
	default:
		if api, engine, solvers, err = buildAPI(); err != nil {
			return err
		}
		if fileIn != nil {
			// Without checkpoints nothing durable covers acked posts; any
			// leftover sidecar cursor refers to state this run does not
			// have. Replay from the start.
			if err := fileIn.Rewind(0); err != nil {
				return err
			}
		}
	}
	var wk *shard.Worker
	if cfg.Shard != nil {
		wk, err = shard.NewWorker(shard.WorkerOptions{
			Server:        api,
			Shard:         cfg.Shard.Index,
			Assignment:    assign,
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
		// restore from even before the first periodic round. No-op for
		// workers running without a checkpoint directory.
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
	log.Printf("firehosed: %s: %s → %s (%s) → %d output(s) over %d authors/users on %s",
		name, cfg.Input.Type, engine, solvers, len(cfg.Outputs), len(fs), cfg.HTTP.Addr)

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
