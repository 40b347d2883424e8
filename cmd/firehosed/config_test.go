package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/connector"
	"firehose/internal/corpusio"
	"firehose/internal/twittergen"
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
		"input": {"type": "file", "path": "posts.ndjson", "tail": true},
		"outputs": [{"type": "sse"}]
	}`)
	cfg, err := loadConfig([]string{"-config", good})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Input.Type != connector.InputFile || cfg.Input.Path != "posts.ndjson" || !cfg.Input.Tail {
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

// TestEngineInputsUseConfiguredLambdaA: the author graph the engine is built
// on is G(engine.lambda_a), not G at the default λa, and thresholds the
// core refuses fail as an error before any graph is built.
func TestEngineInputsUseConfiguredLambdaA(t *testing.T) {
	ec := connector.DefaultConfig().Engine
	ec.Authors, ec.Seed, ec.LambdaA = 200, 7, 0.5
	th, g, subs, _, err := engineInputs(&ec, false)
	if err != nil {
		t.Fatal(err)
	}
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(7)), twittergen.DefaultGraphConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	want := authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.5)
	if th.LambdaA != 0.5 || g.LambdaA() != 0.5 {
		t.Fatalf("thresholds λa %v, graph λa %v; want 0.5", th.LambdaA, g.LambdaA())
	}
	for a := int32(0); a < int32(want.NumAuthors()); a++ {
		if !slices.Equal(g.Neighbors(a), want.Neighbors(a)) {
			t.Fatalf("author %d: neighbors %v, G(0.5) has %v", a, g.Neighbors(a), want.Neighbors(a))
		}
	}
	if dflt := authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.7); g.NumEdges() == dflt.NumEdges() {
		t.Fatalf("G(0.5) and G(0.7) both have %d edges; the case does not tell them apart", g.NumEdges())
	}
	if len(subs) != 200 {
		t.Fatalf("%d subscription lists, want 200", len(subs))
	}

	ec.LambdaA = 1
	if _, _, _, _, err := engineInputs(&ec, false); err == nil || !strings.Contains(err.Error(), "LambdaA") {
		t.Fatalf("λa = 1: err %v, want the core's LambdaA range error", err)
	}
}

// TestInputsFingerprint: a router's fingerprint, taken without building the
// graph, equals the one a worker takes inside its graph read; every input
// that changes a decision changes it, and settings that change none do not.
func TestInputsFingerprint(t *testing.T) {
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(5)), twittergen.DefaultGraphConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := corpusio.WriteFollowees(&buf, social.Followees); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "followees.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fingerprints := func(ec connector.EngineConfig) (worker, router string) {
		t.Helper()
		_, _, _, worker, err := engineInputs(&ec, true)
		if err != nil {
			t.Fatal(err)
		}
		_, router, err = routerInputs(&ec)
		if err != nil {
			t.Fatal(err)
		}
		return worker, router
	}
	generated := connector.DefaultConfig().Engine
	generated.Authors, generated.Seed = 150, 5
	fromFile := generated
	fromFile.FolloweesPath = path

	base := map[string]string{}
	for name, ec := range map[string]connector.EngineConfig{"generated": generated, "followees": fromFile} {
		worker, router := fingerprints(ec)
		if worker != router || len(worker) != 64 {
			t.Fatalf("%s: worker fingerprint %q, router %q; want one 64-hex-digit value", name, worker, router)
		}
		base[name] = worker
	}
	if base["generated"] == base["followees"] {
		t.Fatal("a generated graph and the same graph read from a file share a fingerprint")
	}

	for _, tc := range []struct {
		name    string
		from    connector.EngineConfig
		edit    func(*connector.EngineConfig)
		changes bool
	}{
		{"lambda_a", fromFile, func(ec *connector.EngineConfig) { ec.LambdaA = 0.6 }, true},
		{"algorithm", fromFile, func(ec *connector.EngineConfig) { ec.Algorithm = "neighborbin" }, true},
		{"lambda_c", fromFile, func(ec *connector.EngineConfig) { ec.LambdaC-- }, true},
		{"lambda_t_millis", fromFile, func(ec *connector.EngineConfig) { ec.LambdaTMillis++ }, true},
		{"index", fromFile, func(ec *connector.EngineConfig) { ec.Index = "off" }, true},
		{"seed", generated, func(ec *connector.EngineConfig) { ec.Seed++ }, true},
		{"authors", generated, func(ec *connector.EngineConfig) { ec.Authors++ }, true},
		{"workers", fromFile, func(ec *connector.EngineConfig) { ec.Workers = 3 }, false},
		{"checkpoint dir", fromFile, func(ec *connector.EngineConfig) { ec.Checkpoint.Dir = t.TempDir() }, false},
		{"seed beside a followees file", fromFile, func(ec *connector.EngineConfig) { ec.Seed++ }, false},
	} {
		ec := tc.from
		tc.edit(&ec)
		worker, router := fingerprints(ec)
		if worker != router {
			t.Fatalf("%s: worker fingerprint %s, router %s", tc.name, worker, router)
		}
		want := base["followees"]
		if tc.from.FolloweesPath == "" {
			want = base["generated"]
		}
		if changed := worker != want; changed != tc.changes {
			t.Errorf("%s: fingerprint changed = %v, want %v", tc.name, changed, tc.changes)
		}
	}

	// One byte of the file is a different graph source.
	edited := bytes.Replace(buf.Bytes(), []byte("1"), []byte("2"), 1)
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, router, err := routerInputs(&fromFile); err != nil || router == base["followees"] {
		t.Fatalf("an edited followees file kept the fingerprint (%v)", err)
	}
}

// TestSubscriptions: each author's subscriptions are its followees that
// are authors, deduplicated — the generator's sets — cut from the rows
// BuildGraphInPlace sorted, so they come out ascending and share their
// rows' arrays; ids past the last author are dropped and negative ids kept
// for the engine to refuse.
func TestSubscriptions(t *testing.T) {
	fs := [][]int32{{2, 9, 1, 2, 0}, {}, {1, -3, 1, 7, 0}}
	authorsim.BuildGraphInPlace(fs, 0.5)
	rows := slices.Clone(fs)
	want := [][]int32{{0, 1, 2}, {}, {-3, 0, 1}}
	got := subscriptions(fs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subscriptions = %v, want %v", got, want)
	}
	for a := range got {
		if len(got[a]) > 0 && &got[a][0] != &rows[a][0] {
			t.Fatalf("author %d's subscriptions are a copy of its row", a)
		}
	}
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(3)), twittergen.DefaultGraphConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	gen := social.Subscriptions()
	authorsim.BuildGraphInPlace(social.Followees, 0.7)
	for a, subs := range subscriptions(social.Followees) {
		set := slices.Clone(gen[a])
		slices.Sort(set)
		if !slices.Equal(subs, set) {
			t.Fatalf("author %d subscribes to %v, the generator derives %v", a, subs, set)
		}
	}
}

// TestOutsideAuthorRefusedAtEveryWorkerCount: a followees file whose author
// 0 follows an id outside the graph is refused at boot by name, whatever the
// worker count, with the one-solver build's message.
func TestOutsideAuthorRefusedAtEveryWorkerCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "followees.jsonl")
	var buf bytes.Buffer
	if err := corpusio.WriteFollowees(&buf, [][]int32{{1, -3}, {0, 2}, {1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "core: user 0 subscribes to author -3 outside graph range [0,3)"
	for _, workers := range []int{1, 2} {
		cfg := connector.DefaultConfig()
		cfg.HTTP.Addr = "127.0.0.1:0"
		cfg.Engine.FolloweesPath = path
		cfg.Engine.Workers = workers
		// A daemon that accepts the file serves until it is signalled.
		booted := make(chan error, 1)
		go func() { booted <- runDaemon(cfg) }()
		select {
		case err := <-booted:
			if err == nil || err.Error() != want {
				t.Fatalf("workers %d: boot = %v, want %q", workers, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers %d: the daemon accepted the file and serves", workers)
		}
	}
}
