package connector_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"firehose/internal/connector"
)

func TestConfigDefaultsValidate(t *testing.T) {
	if err := connector.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config does not validate: %v", err)
	}
}

func TestParseOverlaysDefaults(t *testing.T) {
	cfg, err := connector.Parse([]byte(`{
		"name": "replay",
		"input": {"type": "file", "path": "posts.ndjson", "tail": true},
		"engine": {"algorithm": "neighborbin", "workers": 2},
		"outputs": [{"type": "sse"}, {"type": "webhook", "url": "http://sink.example/posts"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Input.Type != connector.InputFile || !cfg.Input.Tail {
		t.Fatalf("input not applied: %+v", cfg.Input)
	}
	if cfg.Engine.Algorithm != "neighborbin" || cfg.Engine.Workers != 2 {
		t.Fatalf("engine not applied: %+v", cfg.Engine)
	}
	// Untouched knobs keep the flag defaults.
	if cfg.Engine.LambdaC != 18 || cfg.HTTP.Addr != ":8080" || cfg.Engine.Checkpoint.Retain != 3 {
		t.Fatalf("defaults lost: λc=%d addr=%q retain=%d", cfg.Engine.LambdaC, cfg.HTTP.Addr, cfg.Engine.Checkpoint.Retain)
	}
	if len(cfg.Outputs) != 2 {
		t.Fatalf("outputs: %+v", cfg.Outputs)
	}
}

// TestParseRejects is the strict-decoding table: every entry must fail with a
// message naming the offense.
func TestParseRejects(t *testing.T) {
	const peers = `"router": {"peers": ["http://127.0.0.1:9001", "http://127.0.0.1:9002"]}`
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown top-level field", `{"imput": {"type": "http"}}`, "unknown field"},
		{"unknown nested field", `{"engine": {"algorithm": "unibin", "turbo": true}}`, "unknown field"},
		{"trailing data", `{"name": "a"} {"name": "b"}`, "trailing data"},
		{"unknown input type", `{"input": {"type": "kafka"}}`, `unknown input type "kafka"`},
		{"unknown output type", `{"outputs": [{"type": "kinesis"}]}`, `unknown output type "kinesis"`},
		{"file field on http input", `{"input": {"type": "http", "path": "x"}}`, `field path is not part of the "http" input's schema`},
		{"tcp field on file input", `{"input": {"type": "file", "path": "x", "addr": ":9"}}`, `field addr is not part of the "file" input's schema`},
		{"file input without path", `{"input": {"type": "file"}}`, "file input needs a path"},
		{"tcp input without addr", `{"input": {"type": "tcp"}}`, "tcp input needs an addr"},
		{"webhook without url", `{"outputs": [{"type": "webhook"}]}`, "webhook output needs a url"},
		{"webhook field on sse", `{"outputs": [{"type": "sse", "url": "http://x"}]}`, `field url is not part of the "sse" output's schema`},
		{"empty outputs", `{"outputs": []}`, "outputs must not be empty"},
		{"bad algorithm", `{"engine": {"algorithm": "quantum"}}`, "engine.algorithm must be"},
		{"negative retain", `{"engine": {"checkpoint": {"retain": -1}}}`, "engine.checkpoint.retain must be non-negative"},
		{"zero drain", `{"http": {"addr": ":0", "drain_millis": 0}}`, "http.drain_millis must be positive"},
		{"negative drain", `{"http": {"addr": ":0", "drain_millis": -5}}`, "http.drain_millis must be positive"},
		{"adaptive steps both zero", `{"engine": {"adaptive": {"budget_posts": 10, "step_lambda_c": 0, "step_lambda_t_millis": 0}}}`, "step_lambda_c or step_lambda_t_millis"},
		{"adaptive plus checkpoint", `{"engine": {"checkpoint": {"dir": "/tmp/x"}, "adaptive": {"budget_posts": 10}}}`, "mutually exclusive"},
		{"negative speedup", `{"input": {"type": "file", "path": "x", "speedup": -1}}`, "speedup must be non-negative"},
		{"lambda_a out of range", `{"engine": {"lambda_a": 1.5}}`, "lambda_a must be in [0,1)"},
		{"lambda_a one", `{"engine": {"lambda_a": 1}}`, "lambda_a must be in [0,1)"},
		{"empty addr", `{"http": {"addr": ""}}`, "http.addr must not be empty"},
		{"bad index policy", `{"engine": {"index": "sideways"}}`, "engine.index must be auto, on or off"},
		{"negative workers", `{"engine": {"workers": -1}}`, "engine.workers must be non-negative"},
		{"zero authors", `{"engine": {"authors": 0}}`, "engine.authors must be positive"},
		{"negative interval", `{"engine": {"checkpoint": {"interval_millis": -1000}}}`, "engine.checkpoint.interval_millis must be non-negative"},
		{"unknown shard field", `{"shard": {"index": 1, "count": 3, "bogus": true}}`, "unknown field"},
		{"shard index out of range", `{"shard": {"index": 2, "count": 2}}`, "shard.index must be in [0,2)"},
		{"shard zero count", `{"shard": {"index": 0, "count": 0}}`, "shard.count must be at least 1"},
		{"shard plus router", `{"shard": {"index": 0, "count": 2}, ` + peers + `}`, "shard and router are mutually exclusive"},
		{"shard plus adaptive", `{"shard": {"index": 0, "count": 2}, "engine": {"adaptive": {"budget_posts": 5}}}`, "shard and engine.adaptive are mutually exclusive"},
		{"shard plus periodic checkpoint", `{"shard": {"index": 0, "count": 2}, "engine": {"checkpoint": {"dir": "/tmp/x", "interval_millis": 5000}}}`, "must not checkpoint periodically"},
		{"shard without checkpoint dir", `{"shard": {"index": 0, "count": 2}}`, "a shard worker needs engine.checkpoint.dir"},
		{"router without checkpoint dir", `{` + peers + `}`, "a router needs engine.checkpoint.dir"},
		{"router bad peer", `{"router": {"peers": ["not a url"]}}`, "router.peers[0] must be an http(s) base URL"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := connector.Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadExpandsEnv(t *testing.T) {
	t.Setenv("TEST_SINK_URL", "http://sink.example/hook")
	path := filepath.Join(t.TempDir(), "pipeline.json")
	doc := `{
		"input": {"type": "http"},
		"outputs": [{"type": "webhook", "url": "${TEST_SINK_URL}"}]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := connector.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Outputs[0].URL != "http://sink.example/hook" {
		t.Fatalf("env not expanded: %q", cfg.Outputs[0].URL)
	}
}

func TestLoadErrorNamesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pipeline.json")
	if err := os.WriteFile(path, []byte(`{"engine": {"algorithm": "bogus"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := connector.Load(path)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("Load error %v does not name the file", err)
	}
}
