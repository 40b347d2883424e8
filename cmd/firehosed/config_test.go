package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"firehose/internal/connector"
)

// loadConfig is the daemon's whole command-line contract: one -config flag
// naming a strict-JSON connector.Config, or nothing for the defaults. These
// tests pin that a bad document fails at startup with the message
// connector.Config.Validate gives it, naming the config knob.

// configArgs writes a pipeline config under t.TempDir() — the defaults with
// edit applied — and returns the command line that boots the daemon from it.
// The integration tests start every process through it.
func configArgs(t *testing.T, edit func(*connector.Config)) []string {
	t.Helper()
	cfg := connector.DefaultConfig()
	edit(cfg)
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []string{"-config", writeConfigFile(t, string(data))}
}

func writeConfigFile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "firehosed.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigDefaults(t *testing.T) {
	cfg, err := loadConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := connector.DefaultConfig()
	if cfg.HTTP.Addr != want.HTTP.Addr || cfg.Engine.Algorithm != want.Engine.Algorithm ||
		cfg.Engine.LambdaC != want.Engine.LambdaC || cfg.Input.Type != connector.InputHTTP {
		t.Fatalf("no flags should yield the defaults, got %+v", cfg)
	}
	if len(cfg.Outputs) != 1 || cfg.Outputs[0].Type != connector.OutputSSE {
		t.Fatalf("default outputs = %+v, want the single sse output", cfg.Outputs)
	}
}

// TestLoadConfigRejects: one case per misusable knob, each loaded through
// -config; the error must name the offending knob so the operator can find
// it. connector's TestParseRejects pins the same messages on Parse itself.
func TestLoadConfigRejects(t *testing.T) {
	const peers = `"router": {"peers": ["http://127.0.0.1:9001", "http://127.0.0.1:9002"]}`
	cases := []struct {
		name    string
		doc     string
		wantErr string
	}{
		{"empty addr", `{"http": {"addr": "", "drain_millis": 1000}}`, "http.addr must not be empty"},
		{"zero drain", `{"http": {"addr": ":0", "drain_millis": 0}}`, "http.drain_millis must be positive"},
		{"negative drain", `{"http": {"addr": ":0", "drain_millis": -5}}`, "http.drain_millis must be positive"},
		{"bad algorithm", `{"engine": {"algorithm": "quantum"}}`, "engine.algorithm must be unibin, neighborbin or cliquebin"},
		{"bad index policy", `{"engine": {"index": "sideways"}}`, "engine.index must be auto, on or off"},
		{"negative workers", `{"engine": {"workers": -1}}`, "engine.workers must be non-negative"},
		{"zero authors", `{"engine": {"authors": 0}}`, "engine.authors must be positive"},
		{"negative retain", `{"engine": {"checkpoint": {"retain": -1}}}`, "engine.checkpoint.retain must be non-negative"},
		{"negative interval", `{"engine": {"checkpoint": {"interval_millis": -1000}}}`, "engine.checkpoint.interval_millis must be non-negative"},
		{"adaptive steps both zero", `{"engine": {"adaptive": {"budget_posts": 5, "step_lambda_c": 0, "step_lambda_t_millis": 0}}}`, "step_lambda_c or step_lambda_t_millis"},
		{"adaptive plus checkpoint", `{"engine": {"adaptive": {"budget_posts": 5}, "checkpoint": {"dir": "/tmp/x"}}}`, "mutually exclusive"},
		{"malformed shard", `{"shard": "0/2"}`, "cannot unmarshal string"},
		{"non-numeric shard", `{"shard": {"index": "a", "count": "b"}}`, "shard.index of type int"},
		{"shard index out of range", `{"shard": {"index": 2, "count": 2}}`, "shard.index must be in [0,2)"},
		{"shard zero count", `{"shard": {"index": 0, "count": 0}}`, "shard.count must be at least 1"},
		{"shard plus router", `{"shard": {"index": 0, "count": 2}, ` + peers + `}`, "shard and router are mutually exclusive"},
		{"shard plus adaptive", `{"shard": {"index": 0, "count": 2}, "engine": {"adaptive": {"budget_posts": 5}}}`, "shard and engine.adaptive are mutually exclusive"},
		{"shard plus periodic checkpoint", `{"shard": {"index": 0, "count": 2}, "engine": {"checkpoint": {"dir": "/tmp/x", "interval_millis": 5000}}}`, "must not checkpoint periodically"},
		{"shard without checkpoint dir", `{"shard": {"index": 0, "count": 2}}`, "a shard worker needs engine.checkpoint.dir"},
		{"router bad peer", `{"router": {"peers": ["not a url"]}}`, "router.peers[0] must be an http(s) base URL"},
		{"router without checkpoint dir", `{` + peers + `}`, "a router needs engine.checkpoint.dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadConfig([]string{"-config", writeConfigFile(t, tc.doc)})
			if err == nil {
				t.Fatalf("loadConfig accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	t.Run("positional argument", func(t *testing.T) {
		_, err := loadConfig([]string{"whoops"})
		if err == nil || !strings.Contains(err.Error(), `unexpected argument "whoops"`) {
			t.Fatalf("positional argument: error %v", err)
		}
	})
}

// TestLoadConfigExclusiveWithFlags: -config is the only flag. A flag from
// the retired command line (-addr, -shard, …) is refused by name rather than
// silently ignored, alone or next to -config.
func TestLoadConfigExclusiveWithFlags(t *testing.T) {
	path := writeConfigFile(t, `{"name": "x"}`)
	for _, args := range [][]string{
		{"-config", path, "-addr", ":1"},
		{"-shard", "0/2"},
	} {
		_, err := loadConfig(args)
		if err == nil {
			t.Fatalf("loadConfig(%q) accepted a removed flag", args)
		}
		if !strings.Contains(err.Error(), "flag provided but not defined: "+args[len(args)-2]) {
			t.Fatalf("error %q should name the undefined flag %s", err, args[len(args)-2])
		}
	}
}

// TestLoadConfigFile: the -config path returns the loaded document, and its
// validation errors carry the file name.
func TestLoadConfigFile(t *testing.T) {
	good := writeConfigFile(t, `{
		"input": {"type": "tcp", "addr": "127.0.0.1:0"},
		"outputs": [{"type": "sse"}]
	}`)
	cfg, err := loadConfig([]string{"-config", good})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Input.Type != connector.InputTCP || cfg.Input.Addr != "127.0.0.1:0" {
		t.Fatalf("config file not applied: %+v", cfg.Input)
	}

	bad := writeConfigFile(t, `{"engine": {"algorithm": "bogus"}}`)
	if _, err := loadConfig([]string{"-config", bad}); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("bad config error %v does not name the file", err)
	}
}

// TestLoadConfigFlagsMatchConfigMessages: a mistake loaded through the
// -config flag produces connector.Parse's validation message verbatim (plus
// the file name) — the daemon adds no validation of its own.
func TestLoadConfigFlagsMatchConfigMessages(t *testing.T) {
	doc := `{"engine": {"checkpoint": {"retain": -1}}}`
	_, flagErr := loadConfig([]string{"-config", writeConfigFile(t, doc)})
	if flagErr == nil {
		t.Fatal("flag path accepted a negative retain")
	}
	_, cfgErr := connector.Parse([]byte(doc))
	if cfgErr == nil {
		t.Fatal("config path accepted a negative retain")
	}
	if !strings.HasPrefix(flagErr.Error(), cfgErr.Error()+" (in ") {
		t.Fatalf("paths diverge:\n flag: %v\n json: %v", flagErr, cfgErr)
	}
}
