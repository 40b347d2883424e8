package connector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/url"
	"os"
)

// This file is the declarative pipeline config: one strictly-validated JSON
// document (input → engine → outputs), the whole of firehosed's
// configuration (its only flag, -config, names the file). Decoding follows
// the adversarial-workload DSL's rules — unknown fields, trailing data and
// fields foreign to a plugin type are all errors, so a config cannot
// silently carry knobs its plugin ignores.

// InputType names an input plugin.
type InputType string

const (
	// InputHTTP is the native push ingest: POST /v1/ingest(+batch) feed the
	// engine directly, as the daemon always worked.
	InputHTTP InputType = "http"
	// InputFile replays (and optionally tails) an NDJSON post file with a
	// durable ack cursor.
	InputFile InputType = "file"
)

// OutputType names an output plugin.
type OutputType string

const (
	// OutputSSE fans deliveries out to GET /v1/stream subscribers.
	OutputSSE OutputType = "sse"
	// OutputWebhook POSTs each delivery as JSON to a fixed URL.
	OutputWebhook OutputType = "webhook"
)

// InputConfig selects and configures the pipeline's single input. Which
// fields are meaningful depends on Type; Validate rejects fields outside the
// type's schema.
type InputConfig struct {
	// Type selects the plugin: "http" or "file" (default "http").
	Type InputType `json:"type"`

	// Path is the NDJSON file to replay (file only, required).
	Path string `json:"path,omitempty"`
	// Tail keeps reading past end-of-file, following rotation (file only).
	Tail bool `json:"tail,omitempty"`
	// Speedup paces the replay by post timestamps: 1 is recorded speed,
	// larger values compress time, 0 ingests as fast as the engine accepts
	// (file only).
	Speedup float64 `json:"speedup,omitempty"`
	// PollMillis is the tail-mode poll period in milliseconds (file only,
	// default 100).
	PollMillis int64 `json:"poll_millis,omitempty"`
	// AckPath overrides the durable ack cursor location (file only, default
	// "<path>.ack").
	AckPath string `json:"ack_path,omitempty"`
}

// OutputConfig selects and configures one output plugin. Which fields are
// meaningful depends on Type; Validate rejects fields outside the type's
// schema.
type OutputConfig struct {
	// Type selects the plugin: "sse" or "webhook".
	Type OutputType `json:"type"`

	// URL is the POST target (webhook only, required).
	URL string `json:"url,omitempty"`
	// QueueSize bounds deliveries buffered for transmit (webhook only,
	// default 256).
	QueueSize int `json:"queue_size,omitempty"`
	// MaxRetries bounds per-delivery transmit retries (webhook only,
	// default 4).
	MaxRetries int `json:"max_retries,omitempty"`
	// BackoffMillis is the first retry delay in milliseconds, doubled per
	// retry (webhook only, default 100).
	BackoffMillis int64 `json:"backoff_millis,omitempty"`
	// TimeoutMillis bounds each HTTP attempt in milliseconds (webhook only,
	// default 5000).
	TimeoutMillis int64 `json:"timeout_millis,omitempty"`
	// FlushMillis bounds the Close-time queue drain in milliseconds (webhook
	// only, default 5000).
	FlushMillis int64 `json:"flush_millis,omitempty"`
}

// HTTPConfig configures the daemon's HTTP surface.
type HTTPConfig struct {
	// Addr is the listen address (default ":8080").
	Addr string `json:"addr"`
	// PProf exposes net/http/pprof under /debug/pprof/.
	PProf bool `json:"pprof,omitempty"`
	// DrainMillis is the graceful-shutdown timeout in milliseconds (default
	// 10000).
	DrainMillis int64 `json:"drain_millis"`
}

// CheckpointConfig configures engine durability. Dir == "" disables it.
type CheckpointConfig struct {
	// Dir is the durable checkpoint directory.
	Dir string `json:"dir,omitempty"`
	// IntervalMillis is the periodic checkpoint interval in milliseconds
	// (0 = on demand and at shutdown only).
	IntervalMillis int64 `json:"interval_millis,omitempty"`
	// Retain is the number of checkpoints kept after each write (0 = all).
	Retain int `json:"retain"`
}

// AdaptiveConfig configures the adaptive threshold controller.
// BudgetPosts == 0 disables it.
type AdaptiveConfig struct {
	// BudgetPosts is the per-user delivery budget per window.
	BudgetPosts int `json:"budget_posts,omitempty"`
	// WindowMillis is the budget accounting window (stream time).
	WindowMillis int64 `json:"window_millis"`
	// MaxLambdaC caps the effective λc, in bits.
	MaxLambdaC int `json:"max_lambda_c"`
	// MaxLambdaTMillis caps the effective λt.
	MaxLambdaTMillis int64 `json:"max_lambda_t_millis"`
	// StepLambdaC is the per-adjustment λc increment, in bits.
	StepLambdaC int `json:"step_lambda_c"`
	// StepLambdaTMillis is the per-adjustment λt increment.
	StepLambdaTMillis int64 `json:"step_lambda_t_millis"`
}

// EngineConfig configures the diversification engine.
type EngineConfig struct {
	// Algorithm is "unibin", "neighborbin" or "cliquebin".
	Algorithm string `json:"algorithm"`
	// Workers is the parallel decision worker count (0 = NumCPU,
	// 1 = sequential engine).
	Workers int `json:"workers"`
	// LambdaC is the content threshold λc: max SimHash Hamming distance in
	// bits.
	LambdaC int `json:"lambda_c"`
	// LambdaTMillis is the time threshold λt in milliseconds.
	LambdaTMillis int64 `json:"lambda_t_millis"`
	// LambdaA is the author-distance threshold λa, in [0,1): the daemon
	// builds the author similarity graph G(λa) with it at boot.
	LambdaA float64 `json:"lambda_a"`
	// Index is the content-index policy: "auto", "on" or "off".
	Index string `json:"index"`
	// Authors sizes the synthetic author universe when FolloweesPath is
	// empty.
	Authors int `json:"authors"`
	// Seed seeds the synthetic graph generation.
	Seed int64 `json:"seed"`
	// FolloweesPath loads followee vectors from a JSONL file instead of
	// generating them.
	FolloweesPath string `json:"followees_path,omitempty"`

	Checkpoint CheckpointConfig `json:"checkpoint"`
	Adaptive   AdaptiveConfig   `json:"adaptive"`
}

// ShardConfig makes the daemon one worker of a sharded deployment: it serves
// the /v1/shard endpoints for the router that owns the stream, and its ids
// are router-assigned. The worker needs the same engine section as every
// other process (graph, thresholds, algorithm): it plans the component
// partition from it, and builds its solver over each user's subscriptions
// restricted to the authors its shard owns, the only ones whose posts the
// router sends it. A worker requires
// engine.checkpoint.dir: router-driven crash recovery rolls it back to its
// coordinated tagged checkpoint.
type ShardConfig struct {
	// Index is this worker's shard in [0, count).
	Index int `json:"index"`
	// Count is the total shard count; every worker and the router must agree.
	Count int `json:"count"`
}

// RouterConfig makes the daemon the router of a sharded deployment: posts are
// forwarded to the worker owning the author's component and delivery streams
// merge back into this process's outputs. A router requires
// engine.checkpoint.dir: coordination rounds (periodic, buffers-full, admin
// and shutdown) run through its checkpoint manager.
type RouterConfig struct {
	// Peers are the worker base URLs, indexed by shard
	// ("http://host:9001" — exactly count entries, peer i is shard i).
	Peers []string `json:"peers"`
}

// Config is the top-level pipeline document: input → engine → outputs.
type Config struct {
	// Name labels the pipeline in logs; optional.
	Name    string         `json:"name,omitempty"`
	HTTP    HTTPConfig     `json:"http"`
	Engine  EngineConfig   `json:"engine"`
	Input   InputConfig    `json:"input"`
	Outputs []OutputConfig `json:"outputs"`
	// Shard, when present, runs this daemon as one shard worker.
	Shard *ShardConfig `json:"shard,omitempty"`
	// Router, when present, runs this daemon as the shard router.
	Router *RouterConfig `json:"router,omitempty"`
}

// DefaultConfig is what firehosed runs without -config, and the base every
// config document overlays: HTTP push input, SSE output, sequential-or-NumCPU
// parallel engine over a 500-author synthetic graph, paper-default
// thresholds.
func DefaultConfig() *Config {
	return &Config{
		HTTP: HTTPConfig{Addr: ":8080", DrainMillis: 10_000},
		Engine: EngineConfig{
			Algorithm:     "unibin",
			Workers:       0,
			LambdaC:       18,
			LambdaTMillis: 30 * 60 * 1000,
			LambdaA:       0.7,
			Index:         "auto",
			Authors:       500,
			Seed:          1,
			Checkpoint:    CheckpointConfig{Retain: 3},
			Adaptive: AdaptiveConfig{
				WindowMillis:      60_000,
				MaxLambdaC:        28,
				MaxLambdaTMillis:  2 * 60 * 60 * 1000,
				StepLambdaC:       2,
				StepLambdaTMillis: 15 * 60 * 1000,
			},
		},
		Input:   InputConfig{Type: InputHTTP},
		Outputs: []OutputConfig{{Type: OutputSSE}},
	}
}

// Validate reports the first schema violation, or nil. Parse and Load run it
// on every document, so firehosed refuses a bad config at startup with a
// message naming the offending knob.
func (c *Config) Validate() error {
	if c.HTTP.Addr == "" {
		return fmt.Errorf("connector: config: http.addr must not be empty")
	}
	if c.HTTP.DrainMillis <= 0 {
		return fmt.Errorf("connector: config: http.drain_millis must be positive, got %d", c.HTTP.DrainMillis)
	}
	if err := c.Engine.validate(); err != nil {
		return err
	}
	if err := c.Input.validate(); err != nil {
		return err
	}
	if len(c.Outputs) == 0 {
		return fmt.Errorf("connector: config: outputs must not be empty (use [{\"type\":\"sse\"}] for the historical behavior)")
	}
	for i := range c.Outputs {
		if err := c.Outputs[i].validate(); err != nil {
			return fmt.Errorf("connector: config: outputs[%d]: %w", i, err)
		}
	}
	if c.Shard != nil && c.Router != nil {
		return fmt.Errorf("connector: config: shard and router are mutually exclusive: a process is a worker or the router, never both")
	}
	if s := c.Shard; s != nil {
		if s.Count < 1 {
			return fmt.Errorf("connector: config: shard.count must be at least 1, got %d", s.Count)
		}
		if s.Index < 0 || s.Index >= s.Count {
			return fmt.Errorf("connector: config: shard.index must be in [0,%d), got %d", s.Count, s.Index)
		}
		if c.Input.Type != InputHTTP {
			return fmt.Errorf("connector: config: a shard worker's input must be http (the router owns the stream), got %q", string(c.Input.Type))
		}
		if c.Engine.Adaptive.BudgetPosts != 0 {
			return fmt.Errorf("connector: config: shard and engine.adaptive are mutually exclusive: per-user budgets span shards and would diverge from a single node")
		}
		if c.Engine.Checkpoint.IntervalMillis != 0 {
			return fmt.Errorf("connector: config: a shard worker must not checkpoint periodically (engine.checkpoint.interval_millis must be 0): the router coordinates every round")
		}
		if c.Engine.Checkpoint.Dir == "" {
			return fmt.Errorf("connector: config: a shard worker needs engine.checkpoint.dir: the router recovers a crashed or desynced worker by rolling it back to its coordinated tagged checkpoint and replaying the posts since, and without a directory there is no checkpoint to roll back to")
		}
	}
	if r := c.Router; r != nil {
		if len(r.Peers) == 0 {
			return fmt.Errorf("connector: config: router.peers must not be empty")
		}
		for i, p := range r.Peers {
			u, err := url.Parse(p)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return fmt.Errorf("connector: config: router.peers[%d] must be an http(s) base URL, got %q", i, p)
			}
		}
		if c.Engine.Adaptive.BudgetPosts != 0 {
			return fmt.Errorf("connector: config: router and engine.adaptive are mutually exclusive: the router runs no local solver to adapt")
		}
		if c.Engine.Checkpoint.Dir == "" {
			return fmt.Errorf("connector: config: a router needs engine.checkpoint.dir: coordination rounds — which clear the replay buffers and give every worker its rollback target — run through the router's checkpoint manager")
		}
	}
	return nil
}

func (e *EngineConfig) validate() error {
	switch e.Algorithm {
	case "unibin", "neighborbin", "cliquebin":
	default:
		return fmt.Errorf("connector: config: engine.algorithm must be unibin, neighborbin or cliquebin, got %q", e.Algorithm)
	}
	switch e.Index {
	case "auto", "on", "off":
	default:
		return fmt.Errorf("connector: config: engine.index must be auto, on or off, got %q", e.Index)
	}
	if e.Workers < 0 {
		return fmt.Errorf("connector: config: engine.workers must be non-negative, got %d", e.Workers)
	}
	if e.LambdaTMillis <= 0 {
		return fmt.Errorf("connector: config: engine.lambda_t_millis must be positive, got %d", e.LambdaTMillis)
	}
	if e.LambdaA < 0 || e.LambdaA >= 1 || math.IsNaN(e.LambdaA) {
		return fmt.Errorf("connector: config: engine.lambda_a must be in [0,1), got %v", e.LambdaA)
	}
	if e.FolloweesPath == "" && e.Authors <= 0 {
		return fmt.Errorf("connector: config: engine.authors must be positive without followees_path, got %d", e.Authors)
	}
	if e.Checkpoint.Retain < 0 {
		return fmt.Errorf("connector: config: engine.checkpoint.retain must be non-negative, got %d", e.Checkpoint.Retain)
	}
	if e.Checkpoint.IntervalMillis < 0 {
		return fmt.Errorf("connector: config: engine.checkpoint.interval_millis must be non-negative, got %d", e.Checkpoint.IntervalMillis)
	}
	if a := &e.Adaptive; a.BudgetPosts != 0 {
		if a.BudgetPosts < 0 {
			return fmt.Errorf("connector: config: engine.adaptive.budget_posts must be non-negative, got %d", a.BudgetPosts)
		}
		if e.Checkpoint.Dir != "" {
			return fmt.Errorf("connector: config: engine.adaptive and engine.checkpoint.dir are mutually exclusive: adaptive controller state does not checkpoint")
		}
		if a.WindowMillis <= 0 {
			return fmt.Errorf("connector: config: engine.adaptive.window_millis must be positive, got %d", a.WindowMillis)
		}
		if a.StepLambdaC < 0 || a.StepLambdaTMillis < 0 {
			return fmt.Errorf("connector: config: engine.adaptive steps must be non-negative")
		}
		if a.StepLambdaC == 0 && a.StepLambdaTMillis == 0 {
			return fmt.Errorf("connector: config: engine.adaptive needs a positive step_lambda_c or step_lambda_t_millis (both are zero: the controller could never adjust)")
		}
	}
	return nil
}

func (in *InputConfig) validate() error {
	switch in.Type {
	case InputHTTP:
		// Every field but Type is the file input's.
		if f := firstBad([]field{{in.Path != "", "path"}, {in.Tail, "tail"}, {in.Speedup != 0, "speedup"},
			{in.PollMillis != 0, "poll_millis"}, {in.AckPath != "", "ack_path"}}); f != "" {
			return fmt.Errorf("connector: config: input field %s is not part of the %q input's schema", f, in.Type)
		}
	case InputFile:
		if in.Path == "" {
			return fmt.Errorf("connector: config: file input needs a path")
		}
		if in.Speedup < 0 || math.IsInf(in.Speedup, 0) || math.IsNaN(in.Speedup) {
			return fmt.Errorf("connector: config: input speedup must be non-negative and finite, got %v", in.Speedup)
		}
		if in.PollMillis < 0 {
			return fmt.Errorf("connector: config: input poll_millis must be non-negative, got %d", in.PollMillis)
		}
	default:
		return fmt.Errorf("connector: config: unknown input type %q (want http or file)", string(in.Type))
	}
	return nil
}

func (o *OutputConfig) validate() error {
	switch o.Type {
	case OutputSSE:
		// Every field but Type is the webhook output's.
		if f := firstBad([]field{{o.URL != "", "url"}, {o.QueueSize != 0, "queue_size"}, {o.MaxRetries != 0, "max_retries"},
			{o.BackoffMillis != 0, "backoff_millis"}, {o.TimeoutMillis != 0, "timeout_millis"}, {o.FlushMillis != 0, "flush_millis"}}); f != "" {
			return fmt.Errorf("field %s is not part of the %q output's schema", f, o.Type)
		}
	case OutputWebhook:
		if o.URL == "" {
			return fmt.Errorf("webhook output needs a url")
		}
		if f := firstBad([]field{{o.QueueSize < 0, "queue_size"}, {o.MaxRetries < 0, "max_retries"},
			{o.BackoffMillis < 0, "backoff_millis"}, {o.TimeoutMillis < 0, "timeout_millis"}, {o.FlushMillis < 0, "flush_millis"}}); f != "" {
			return fmt.Errorf("field %s must be non-negative", f)
		}
	default:
		return fmt.Errorf("unknown output type %q (want sse or webhook)", string(o.Type))
	}
	return nil
}

// field is one config field a plugin type constrains; bad marks a value the
// type does not accept.
type field struct {
	bad  bool
	name string
}

// firstBad names the first field in fs whose value is bad ("" for none).
func firstBad(fs []field) string {
	for _, f := range fs {
		if f.bad {
			return f.name
		}
	}
	return ""
}

// Parse decodes and validates one JSON pipeline config over the defaults.
// Decoding is strict: unknown fields, trailing data and fields foreign to a
// plugin type are all errors.
func Parse(data []byte) (*Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("connector: config: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("connector: config: trailing data after the JSON object")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Load reads, env-expands, decodes and validates a pipeline config file.
// ${VAR} and $VAR references expand from the environment before decoding
// (unset variables expand to the empty string), so one committed config can
// serve many deployments.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("connector: config: %w", err)
	}
	expanded := os.Expand(string(data), os.Getenv)
	cfg, err := Parse([]byte(expanded))
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return cfg, nil
}
