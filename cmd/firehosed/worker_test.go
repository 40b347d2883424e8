package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"firehose/internal/checkpoint"
	"firehose/internal/connector"
	"firehose/internal/core"
	"firehose/internal/httpapi"
	"firehose/internal/ingeststream"
	"firehose/internal/shard"
)

// TestShardWorkerBuildsOnlyItsShard: a shard worker builds its solver over
// the authors its shard owns, as the router only sends it their posts. Its
// snapshot equals that of a solver built over the restricted subscriptions
// (both at watermark 0, where no timing-dependent histogram has an entry
// yet), and a snapshot of a solver built over the whole subscription map is
// refused when the worker is rolled back to it. The worker also refuses a
// client's ingest stream before the Upgrade: its router owns the stream.
func TestShardWorkerBuildsOnlyItsShard(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and execs the daemon; skipped in -short")
	}
	bin := buildFirehosed(t)
	addr, dir := freeAddr(t), t.TempDir()
	base := "http://" + addr
	var cfg *connector.Config
	args := configArgs(t, func(c *connector.Config) {
		c.HTTP.Addr = addr
		c.Engine.Authors, c.Engine.Seed, c.Engine.Workers = 40, 7, 1
		c.Engine.Checkpoint.Dir = dir
		c.Shard = &connector.ShardConfig{Index: 0, Count: 2}
		cfg = c
	})
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill(); _ = cmd.Wait() }()
	waitHealthy(t, base)

	// The reference servers, built in-process over the worker's inputs.
	th, g, subs, _, err := engineInputs(&cfg.Engine, false)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := shard.Plan(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	reference := func(subs [][]int32) *httpapi.Server {
		md, err := core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		srv := httpapi.New(md)
		srv.SetTopology(0, 2, assign.Digest())
		return srv
	}
	snapshot := func(srv *httpapi.Server) []byte {
		var b bytes.Buffer
		if err := srv.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// workerSubscriptions restricts the lists in place: the full build first.
	full := reference(subs)
	restricted := reference(workerSubscriptions(g, subs, assign, 0))
	defer restricted.Close()
	defer full.Close()
	if bytes.Equal(snapshot(restricted), snapshot(full)) {
		t.Fatal("the restricted and the full build snapshot alike: the test graph does not tell them apart")
	}

	control := func(path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(shard.TopologyHeader, fmt.Sprintf("%016x/0/2", assign.Digest()))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		_, _ = b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}

	// (a) The worker's own checkpoint is the restricted build's snapshot.
	if code, body := control("/v1/shard/checkpoint", `{"watermark":0}`); code != http.StatusOK {
		t.Fatalf("worker checkpoint: %d %s", code, body)
	}
	got, err := os.ReadFile(filepath.Join(dir, "shard-0.fhc"))
	if err != nil {
		t.Fatal(err)
	}
	if want := snapshot(restricted); !bytes.Equal(got, want) {
		t.Fatalf("the worker's snapshot (%d bytes) differs from the restricted build's (%d bytes)", len(got), len(want))
	}

	// (b) A full build's snapshot does not restore into the worker.
	if _, err := checkpoint.WriteTagged(dir, 5, full.Snapshot); err != nil {
		t.Fatal(err)
	}
	code, body := control("/v1/shard/restore", `{"watermark":5}`)
	if code != http.StatusInternalServerError || !strings.Contains(body, "snapshot has ") || !strings.Contains(body, " instances, engine has ") {
		t.Fatalf("restoring a full build's snapshot: %d %s; want 500 naming the instance counts", code, body)
	}

	// A worker refuses a client's stream before the Upgrade.
	sc, status, refusal, err := ingeststream.Dial(context.Background(), http.DefaultTransport, base+"/v1/ingest/stream", ingeststream.ClientProtocol, nil, 5*time.Second)
	if err != nil || sc != nil || status != http.StatusServiceUnavailable || !strings.Contains(string(refusal), httpapi.CodeIngestDisabled) {
		t.Fatalf("a worker answered a client stream with %d %s, %v; want 503 %s", status, refusal, err, httpapi.CodeIngestDisabled)
	}
}

// TestStreamOpenAtShutdown: a daemon SIGTERMed with a client's ingest stream
// open ends the stream and exits within http.drain_millis. A hijacked
// connection is invisible to http.Server.Shutdown, so the server must end it
// itself.
func TestStreamOpenAtShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and execs the daemon; skipped in -short")
	}
	bin := buildFirehosed(t)
	addr := freeAddr(t)
	base := "http://" + addr
	const drain = 3 * time.Second
	cmd := exec.Command(bin, configArgs(t, func(c *connector.Config) {
		c.HTTP.Addr, c.HTTP.DrainMillis = addr, drain.Milliseconds()
		c.Engine.Authors, c.Engine.Seed, c.Engine.Workers = 40, 7, 2
	})...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		_ = cmd.Process.Kill()
		<-exited
	}()
	waitHealthy(t, base)

	sc, status, body, err := ingeststream.Dial(context.Background(), http.DefaultTransport, base+"/v1/ingest/stream", ingeststream.ClientProtocol, nil, 5*time.Second)
	if err != nil || sc == nil {
		t.Fatalf("dial: %d %s, %v", status, body, err)
	}
	defer sc.Close()
	replies := make([]ingeststream.Reply, 1)
	if n, _, err := sc.RoundTrip([]ingeststream.Request{{Author: 3, TimeMillis: 1000, Text: "one post"}}, replies); err != nil || n != 1 || replies[0].Status != 0 || replies[0].ID != 1 {
		t.Fatalf("first frame: %d replies %+v, %v", n, replies, err)
	}

	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(drain):
		t.Fatalf("daemon still running %v after SIGTERM with a stream open", drain)
	}
	t.Logf("exited %v after SIGTERM", time.Since(start))
	if _, _, err := sc.RoundTrip([]ingeststream.Request{{Author: 3, TimeMillis: 2000, Text: "after shutdown"}}, replies); err == nil {
		t.Fatal("the stream outlived the daemon")
	}
}

// TestWorkerSubscriptionsInPlace: a shard worker restricts its subscription
// lists within their own arrays, allocating nothing, to the authors a
// restricted build keeps, and its solver over them snapshots as a build
// that filters the whole lists as it finds components: a shard worker's
// boot makes no per-user copy of its subscriptions.
func TestWorkerSubscriptionsInPlace(t *testing.T) {
	ec := connector.DefaultConfig().Engine
	ec.Authors, ec.Seed = 300, 7
	th, g, subs, _, err := engineInputs(&ec, false)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := shard.Plan(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	whole := make([][]int32, len(subs))
	for u, list := range subs {
		whole[u] = slices.Clone(list)
	}
	keep := func(a int32) bool { return !g.Contains(a) || assign.ShardOf(a) == 0 }
	arrays := slices.Clone(subs)
	if allocs := testing.AllocsPerRun(3, func() { workerSubscriptions(g, subs, assign, 0) }); allocs != 0 {
		t.Fatalf("workerSubscriptions made %v allocations, want none", allocs)
	}
	for u, list := range subs {
		if want := slices.DeleteFunc(slices.Clone(whole[u]), func(a int32) bool { return !keep(a) }); !slices.Equal(list, want) {
			t.Fatalf("user %d keeps %v, want %v", u, list, want)
		}
		if len(list) > 0 && &list[0] != &arrays[u][0] {
			t.Fatalf("user %d's restricted list is a copy", u)
		}
	}
	snapshot := func(md *core.SharedMultiUser, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		enc := checkpoint.NewEncoder(&b, "worker.test")
		if err := md.SnapshotState(enc); err != nil {
			t.Fatal(err)
		}
		if err := enc.Finish(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	got := snapshot(core.NewSharedMultiUser(core.AlgUniBin, g, subs, th))
	if want := snapshot(core.NewSharedMultiUserOn(2, core.AlgUniBin, g, whole, keep, th)); !bytes.Equal(got, want) {
		t.Fatal("the worker's solver snapshots unlike a build that filters the whole lists")
	}
	if full := snapshot(core.NewSharedMultiUser(core.AlgUniBin, g, whole, th)); bytes.Equal(got, full) {
		t.Fatal("the restricted and the full build snapshot alike: the test graph does not tell them apart")
	}
}
