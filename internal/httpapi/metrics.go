package httpapi

import (
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"

	"firehose/internal/checkpoint"
	"firehose/internal/connector"
	"firehose/internal/core"
	"firehose/internal/metrics"
	"firehose/internal/stream"
)

// This file is the service's observability surface: GET /v1/metrics renders the
// engine's cost counters, the per-post decision latency histogram, the
// parallel engine's per-worker queue gauges and the SSE broker's delivery
// counters in Prometheus text exposition format (hand-rolled in
// internal/metrics — no client library dependency). Metric collection is
// pull-only: nothing on the ingest hot path touches the registry; every
// series is computed from engine snapshots at scrape time.

// parallelTimelines adapts a stream.ParallelMultiEngine to the engine seam:
// it joins each decision ticket and maintains the per-user timelines the
// /timeline and /users endpoints serve (the parallel engine itself resolves
// decisions asynchronously and stores none).
type parallelTimelines struct {
	pe *stream.ParallelMultiEngine

	// mu guards: timelines
	mu        sync.Mutex
	timelines stream.Timelines
}

func newParallelTimelines(pe *stream.ParallelMultiEngine) *parallelTimelines {
	return &parallelTimelines{pe: pe}
}

// Offer enqueues the post and blocks on its ticket only — concurrent callers
// whose posts land on different workers proceed in parallel.
func (a *parallelTimelines) Offer(p *core.Post) ([]int32, error) {
	t, err := a.pe.Offer(p)
	if err != nil {
		return nil, err
	}
	users := t.Users()
	if len(users) > 0 {
		a.mu.Lock()
		a.timelines.Deliver(p, users)
		a.mu.Unlock()
	}
	return users, nil
}

// OfferBatch hands the whole batch to the parallel engine in one routing pass
// (one channel send per touched worker), joins the batch ticket, and appends
// the deliveries to the timelines in batch order.
func (a *parallelTimelines) OfferBatch(posts []*core.Post) ([][]int32, error) {
	t, err := a.pe.OfferBatch(posts)
	if err != nil {
		return nil, err
	}
	deliveries := t.Users()
	a.mu.Lock()
	for i, users := range deliveries {
		a.timelines.Deliver(posts[i], users)
	}
	a.mu.Unlock()
	return deliveries, nil
}

func (a *parallelTimelines) Timeline(user int32) []*core.Post {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.timelines.Timeline(user)
}

func (a *parallelTimelines) Counters() metrics.Counters { return a.pe.Counters() }

func (a *parallelTimelines) Name() string { return a.pe.Name() }

func (a *parallelTimelines) Close() { a.pe.Close() }

func (a *parallelTimelines) WorkerSnapshots() []stream.WorkerSnapshot {
	return a.pe.WorkerSnapshots()
}

// AdaptiveStates merges the per-shard controller states (nil when the shards
// are not adaptive-wrapped); Suppressed sums the shards' withheld counts.
func (a *parallelTimelines) AdaptiveStates() []core.AdaptiveUserState {
	return a.pe.AdaptiveStates()
}

func (a *parallelTimelines) Suppressed() uint64 { return a.pe.Suppressed() }

// SnapshotState delegates to the parallel engine (which quiesces). The
// timeline store is derived view state and is not serialized — same policy as
// stream.MultiEngine.
func (a *parallelTimelines) SnapshotState(enc *checkpoint.Encoder) error {
	return a.pe.SnapshotState(enc)
}

// RestoreState delegates to the parallel engine and resets the derived
// timelines: they replay forward from the restore point.
func (a *parallelTimelines) RestoreState(dec *checkpoint.Decoder) error {
	if err := a.pe.RestoreState(dec); err != nil {
		return err
	}
	a.mu.Lock()
	a.timelines.Reset()
	a.mu.Unlock()
	return nil
}

// buildRegistry wires every metric family. Families that read the engine's
// Counters snapshot per collect; the snapshot is taken under the engine's
// own locks, so scrapes never race decisions.
func (s *Server) buildRegistry() *metrics.Registry {
	r := metrics.NewRegistry()
	algLabel := func() []metrics.Label {
		return []metrics.Label{{Name: "algorithm", Value: s.engine.Name()}}
	}

	r.MustRegister("firehose_decisions_total",
		"Posts decided by the diversification engine, split by outcome.",
		metrics.KindCounter, func() []metrics.Sample {
			c := s.engine.Counters()
			alg := s.engine.Name()
			return []metrics.Sample{
				{Labels: []metrics.Label{{Name: "algorithm", Value: alg}, {Name: "result", Value: "accepted"}}, Value: float64(c.Accepted)},
				{Labels: []metrics.Label{{Name: "algorithm", Value: alg}, {Name: "result", Value: "rejected"}}, Value: float64(c.Rejected)},
			}
		})
	r.MustRegister("firehose_comparisons_total",
		"Pairwise post coverage checks (the paper's comparison cost metric).",
		metrics.KindCounter, func() []metrics.Sample {
			c := s.engine.Counters()
			return []metrics.Sample{{Labels: algLabel(), Value: float64(c.Comparisons)}}
		})
	r.MustRegister("firehose_insertions_total",
		"Post-copy insertions into bins.",
		metrics.KindCounter, func() []metrics.Sample {
			c := s.engine.Counters()
			return []metrics.Sample{{Labels: algLabel(), Value: float64(c.Insertions)}}
		})
	r.MustRegister("firehose_evictions_total",
		"Post copies expired out of the time window.",
		metrics.KindCounter, func() []metrics.Sample {
			c := s.engine.Counters()
			return []metrics.Sample{{Labels: algLabel(), Value: float64(c.Evictions)}}
		})
	r.MustRegister("firehose_stored_copies",
		"Live post copies currently resident across all bins (S_UniBin: physical ring entries, each post once per author-graph component).",
		metrics.KindGauge, func() []metrics.Sample {
			c := s.engine.Counters()
			return []metrics.Sample{{Labels: algLabel(), Value: float64(c.StoredLive())}}
		})
	r.MustRegister("firehose_stored_copies_peak",
		"Peak simultaneous post copies (the paper's RAM metric; S_UniBin: physical ring entries, summed per-ring peaks).",
		metrics.KindGauge, func() []metrics.Sample {
			c := s.engine.Counters()
			return []metrics.Sample{{Labels: algLabel(), Value: float64(c.StoredPeak)}}
		})
	r.MustRegister("firehose_decision_latency_seconds",
		"Per-post decision latency of the diversification algorithm.",
		metrics.KindHistogram, func() []metrics.Sample {
			c := s.engine.Counters()
			return []metrics.Sample{{Labels: algLabel(), Hist: c.Decisions}}
		})

	r.MustRegister("firehose_checkpoint_pause_seconds",
		"Time each checkpoint held the ingest lock (ingest paused while the state was captured and written).",
		metrics.KindHistogram, func() []metrics.Sample {
			s.mu.Lock()
			defer s.mu.Unlock()
			return []metrics.Sample{{Hist: s.ckptPause}}
		})
	r.MustRegister("firehose_checkpoint_bytes",
		"Size in bytes of the last successful checkpoint.",
		metrics.KindGauge, func() []metrics.Sample {
			s.mu.Lock()
			defer s.mu.Unlock()
			return []metrics.Sample{{Value: float64(s.ckptBytes)}}
		})

	if s.workers != nil {
		workerLabel := func(w int) []metrics.Label {
			return []metrics.Label{{Name: "worker", Value: strconv.Itoa(w)}}
		}
		r.MustRegister("firehose_worker_queue_depth",
			"Pending posts in each worker's queue.",
			metrics.KindGauge, func() []metrics.Sample {
				snaps := s.workers.WorkerSnapshots()
				out := make([]metrics.Sample, len(snaps))
				for i, ws := range snaps {
					out[i] = metrics.Sample{Labels: workerLabel(ws.Worker), Value: float64(ws.QueueLen)}
				}
				return out
			})
		r.MustRegister("firehose_worker_queue_capacity",
			"Bound of each worker's queue.",
			metrics.KindGauge, func() []metrics.Sample {
				snaps := s.workers.WorkerSnapshots()
				out := make([]metrics.Sample, len(snaps))
				for i, ws := range snaps {
					out[i] = metrics.Sample{Labels: workerLabel(ws.Worker), Value: float64(ws.QueueCap)}
				}
				return out
			})
		r.MustRegister("firehose_worker_queue_wait_seconds",
			"Enqueue-to-dequeue wait of each worker's queue (shard imbalance signal).",
			metrics.KindHistogram, func() []metrics.Sample {
				snaps := s.workers.WorkerSnapshots()
				out := make([]metrics.Sample, len(snaps))
				for i, ws := range snaps {
					out[i] = metrics.Sample{Labels: workerLabel(ws.Worker), Hist: ws.QueueWait}
				}
				return out
			})
		r.MustRegister("firehose_worker_decisions_total",
			"Per-worker decided posts, split by outcome.",
			metrics.KindCounter, func() []metrics.Sample {
				snaps := s.workers.WorkerSnapshots()
				out := make([]metrics.Sample, 0, 2*len(snaps))
				for _, ws := range snaps {
					w := strconv.Itoa(ws.Worker)
					out = append(out,
						metrics.Sample{Labels: []metrics.Label{{Name: "worker", Value: w}, {Name: "result", Value: "accepted"}}, Value: float64(ws.Counters.Accepted)},
						metrics.Sample{Labels: []metrics.Label{{Name: "worker", Value: w}, {Name: "result", Value: "rejected"}}, Value: float64(ws.Counters.Rejected)})
				}
				return out
			})
		r.MustRegister("firehose_worker_decision_latency_seconds",
			"Per-worker decision latency.",
			metrics.KindHistogram, func() []metrics.Sample {
				snaps := s.workers.WorkerSnapshots()
				out := make([]metrics.Sample, len(snaps))
				for i, ws := range snaps {
					out[i] = metrics.Sample{Labels: workerLabel(ws.Worker), Hist: ws.Counters.Decisions}
				}
				return out
			})
	}

	if s.adaptive != nil {
		userLabel := func(u int32) []metrics.Label {
			return []metrics.Label{{Name: "user", Value: strconv.Itoa(int(u))}}
		}
		r.MustRegister("firehose_adaptive_suppressed_total",
			"Deliveries withheld by the adaptive per-user threshold controller.",
			metrics.KindCounter, func() []metrics.Sample {
				return []metrics.Sample{{Value: float64(s.adaptive.Suppressed())}}
			})
		r.MustRegister("firehose_adaptive_lambda_c_bits",
			"Effective content threshold λc per user (baseline when unregulated).",
			metrics.KindGauge, func() []metrics.Sample {
				states := s.adaptive.AdaptiveStates()
				out := make([]metrics.Sample, len(states))
				for i, st := range states {
					out[i] = metrics.Sample{Labels: userLabel(st.User), Value: float64(st.LambdaC)}
				}
				return out
			})
		r.MustRegister("firehose_adaptive_lambda_t_seconds",
			"Effective time threshold λt per user.",
			metrics.KindGauge, func() []metrics.Sample {
				states := s.adaptive.AdaptiveStates()
				out := make([]metrics.Sample, len(states))
				for i, st := range states {
					out[i] = metrics.Sample{Labels: userLabel(st.User), Value: float64(st.LambdaT) / 1000}
				}
				return out
			})
		r.MustRegister("firehose_adaptive_window_delivered",
			"Deliveries inside each user's current budget window.",
			metrics.KindGauge, func() []metrics.Sample {
				states := s.adaptive.AdaptiveStates()
				out := make([]metrics.Sample, len(states))
				for i, st := range states {
					out[i] = metrics.Sample{Labels: userLabel(st.User), Value: float64(st.Delivered)}
				}
				return out
			})
		r.MustRegister("firehose_adaptive_user_suppressed_total",
			"Deliveries withheld by the controller, per user.",
			metrics.KindCounter, func() []metrics.Sample {
				states := s.adaptive.AdaptiveStates()
				out := make([]metrics.Sample, len(states))
				for i, st := range states {
					out[i] = metrics.Sample{Labels: userLabel(st.User), Value: float64(st.Suppressed)}
				}
				return out
			})
	}

	r.MustRegister("firehose_sse_subscribers",
		"Open SSE stream subscriptions.",
		metrics.KindGauge, func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.broker.subscriberCount())}}
		})
	r.MustRegister("firehose_sse_events_published_total",
		"Timeline events delivered to SSE subscriber buffers.",
		metrics.KindCounter, func() []metrics.Sample {
			published, _ := s.broker.eventCounts()
			return []metrics.Sample{{Value: float64(published)}}
		})
	r.MustRegister("firehose_sse_events_dropped_total",
		"Timeline events a subscriber never received: buffer-full discards plus events still buffered at disconnect.",
		metrics.KindCounter, func() []metrics.Sample {
			_, dropped := s.broker.eventCounts()
			return []metrics.Sample{{Value: float64(dropped)}}
		})
	r.MustRegister("firehose_sse_user_dropped_total",
		"Timeline events a subscriber never received, per user.",
		metrics.KindCounter, func() []metrics.Sample {
			drops := s.broker.userDrops()
			users := make([]int32, 0, len(drops))
			for u := range drops {
				users = append(users, u)
			}
			sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
			out := make([]metrics.Sample, len(users))
			for i, u := range users {
				out[i] = metrics.Sample{
					Labels: []metrics.Label{{Name: "user", Value: strconv.Itoa(int(u))}},
					Value:  float64(drops[u]),
				}
			}
			return out
		})
	return r
}

// MountConnectorMetrics registers the firehose_connector_* families over a
// connector stats source (the daemon's assembled pipeline). Call it once,
// before serving traffic.
func (s *Server) MountConnectorMetrics(src connector.StatsSource) {
	componentLabel := func(c string) []metrics.Label {
		return []metrics.Label{{Name: "component", Value: c}}
	}
	each := func(pick func(connector.Stat) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			stats := src.ConnectorStats()
			out := make([]metrics.Sample, len(stats))
			for i, st := range stats {
				out[i] = metrics.Sample{Labels: componentLabel(st.Component), Value: pick(st)}
			}
			return out
		}
	}
	s.registry.MustRegister("firehose_connector_read_total",
		"Messages read from connector inputs.",
		metrics.KindCounter, each(func(st connector.Stat) float64 { return float64(st.Read) }))
	s.registry.MustRegister("firehose_connector_ingested_total",
		"Connector messages the engine accepted for a decision.",
		metrics.KindCounter, each(func(st connector.Stat) float64 { return float64(st.Ingested) }))
	s.registry.MustRegister("firehose_connector_skipped_total",
		"Connector messages dropped before a decision (malformed, disorder, empty).",
		metrics.KindCounter, each(func(st connector.Stat) float64 { return float64(st.Skipped) }))
	s.registry.MustRegister("firehose_connector_ack_total",
		"Connector messages acked to their input after a durable checkpoint.",
		metrics.KindCounter, each(func(st connector.Stat) float64 { return float64(st.Acked) }))
	s.registry.MustRegister("firehose_connector_ack_seq",
		"Highest durable checkpoint watermark acked per component.",
		metrics.KindGauge, each(func(st connector.Stat) float64 { return float64(st.AckSeq) }))
	s.registry.MustRegister("firehose_connector_write_total",
		"Deliveries written to connector outputs.",
		metrics.KindCounter, each(func(st connector.Stat) float64 { return float64(st.Written) }))
	s.registry.MustRegister("firehose_connector_retry_total",
		"Connector output transmit retries.",
		metrics.KindCounter, each(func(st connector.Stat) float64 { return float64(st.Retries) }))
	s.registry.MustRegister("firehose_connector_dropped_total",
		"Deliveries abandoned by a connector output after bounded retry.",
		metrics.KindCounter, each(func(st connector.Stat) float64 { return float64(st.Dropped) }))
	s.registry.MustRegister("firehose_connector_error_total",
		"Connector component errors (failed writes, failed acks).",
		metrics.KindCounter, each(func(st connector.Stat) float64 { return float64(st.Errors) }))
}

// RegisterMetric adds one family to the registry behind /v1/metrics, for a
// layer mounted from outside the package (the shard router's firehose_shard_*
// series). Call it before serving traffic; a duplicate name panics.
func (s *Server) RegisterMetric(name, help string, kind metrics.Kind, collect metrics.Collector) {
	s.registry.MustRegister(name, help, kind, collect)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.registry.WritePrometheus(w)
}

// EnablePProf mounts net/http/pprof's profiling handlers under /debug/pprof/
// on the server's own mux (nothing is registered on http.DefaultServeMux).
// Profiling exposes internals — keep it behind the daemon's opt-in flag.
func (s *Server) EnablePProf() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
