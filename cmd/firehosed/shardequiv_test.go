package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"firehose/internal/connector"
	"firehose/internal/httpapi"
)

// TestShardedEquivalence is the sharding integration test: a real 2-shard
// deployment (two worker processes + one router process, all the same
// firehosed binary) must make bit-identical decisions to one single-node
// process over the same stream — same ids, same delivered-user sets — through
// a router-coordinated checkpoint, a SIGKILL of one worker mid-stream, and a
// SIGKILL-and-restore of the router itself. It also pins the topology admin
// surface and the boot refusals of a mismatched peer set and of a worker
// started over other thresholds.
func TestShardedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and execs the daemon; skipped in -short")
	}

	bin := buildFirehosed(t)
	singleAddr := freeAddr(t)
	workerAddrs := []string{freeAddr(t), freeAddr(t)}
	routerAddr := freeAddr(t)
	singleBase := "http://" + singleAddr
	routerBase := "http://" + routerAddr
	workerDirs := []string{t.TempDir(), t.TempDir()}
	routerDir := t.TempDir()

	// Every process shares the engine section — it determines the assignment
	// digest — and adds its own address and role.
	fleetArgs := func(addr string, role func(*connector.Config)) []string {
		return configArgs(t, func(c *connector.Config) {
			c.HTTP.Addr = addr
			c.Engine.Authors, c.Engine.Seed, c.Engine.Algorithm = 40, 7, "neighborbin"
			role(c)
		})
	}
	start := func(args []string) *exec.Cmd {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting firehosed %v: %v", args, err)
		}
		return cmd
	}
	workerArgs := make([][]string, len(workerAddrs))
	for s := range workerArgs {
		workerArgs[s] = fleetArgs(workerAddrs[s], func(c *connector.Config) {
			c.Shard = &connector.ShardConfig{Index: s, Count: 2}
			c.Engine.Checkpoint.Dir = workerDirs[s]
		})
	}
	routerArgs := fleetArgs(routerAddr, func(c *connector.Config) {
		c.Router = &connector.RouterConfig{Peers: []string{"http://" + workerAddrs[0], "http://" + workerAddrs[1]}}
		c.Engine.Checkpoint.Dir = routerDir
	})
	startWorker := func(s int) *exec.Cmd {
		cmd := start(workerArgs[s])
		waitHealthy(t, "http://"+workerAddrs[s])
		return cmd
	}
	startRouter := func() *exec.Cmd {
		cmd := start(routerArgs)
		waitHealthy(t, routerBase)
		return cmd
	}

	single := start(fleetArgs(singleAddr, func(*connector.Config) {}))
	defer func() { _ = single.Process.Kill() }()
	waitHealthy(t, singleBase)
	workers := []*exec.Cmd{startWorker(0), startWorker(1)}
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
		}
	}()
	router := startRouter()
	defer func() { _ = router.Process.Kill() }()

	// post generates the deterministic workload; offer ingests post i into
	// both deployments and asserts identical decisions.
	post := func(i int) (author int, tm int64, text string) {
		author = (i*7 + 3) % 40
		return author, int64(1000 * (i + 1)), fmt.Sprintf("story %d from author %d tonight", i, author)
	}
	type answer struct {
		author int
		tm     int64
		text   string
		id     uint64
		users  []int32
	}
	var replayLog []answer // everything ingested after the router checkpoint
	offer := func(i int, record bool) {
		t.Helper()
		author, tm, text := post(i)
		want := ingestPost(t, singleBase, author, tm, text)
		got := ingestPost(t, routerBase, author, tm, text)
		if want.ID != got.ID || !sameUsers(want.Delivered, got.Delivered) {
			t.Fatalf("post %d: single {id %d users %v}, sharded {id %d users %v}",
				i, want.ID, want.Delivered, got.ID, got.Delivered)
		}
		if record {
			replayLog = append(replayLog, answer{author, tm, text, got.ID, got.Delivered})
		}
	}
	timelines := func(base string, user int) []uint64 {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/timeline?user=%d&n=100000", base, user))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Posts []struct {
				ID uint64 `json:"id"`
			} `json:"posts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, len(out.Posts))
		for i, p := range out.Posts {
			ids[i] = p.ID
		}
		return ids
	}
	// sameReads asserts the bounded reads — the newest 7 and the user stats —
	// answer byte-identically on both deployments for every user.
	sameReads := func(when string) {
		t.Helper()
		for u := 0; u < 5; u++ {
			for _, path := range []string{fmt.Sprintf("/v1/timeline?user=%d&n=7", u), fmt.Sprintf("/v1/users/%d/stats", u)} {
				if w, g := getBody(t, singleBase+path), getBody(t, routerBase+path); w != g {
					t.Fatalf("%s: %s: single %s, sharded %s", when, path, w, g)
				}
			}
		}
	}

	// --- Phase 1: plain streaming equivalence.
	for i := 0; i < 25; i++ {
		offer(i, false)
	}
	for u := 0; u < 5; u++ {
		if w, g := timelines(singleBase, u), timelines(routerBase, u); fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("user %d timeline: single %v, sharded %v", u, w, g)
		}
	}
	sameReads("before the checkpoint")

	// --- Coordinated checkpoint over the admin API.
	resp, err := http.Post(routerBase+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router admin checkpoint: status %d", resp.StatusCode)
	}
	for s, dir := range workerDirs {
		files, err := os.ReadDir(dir)
		if err != nil || len(files) == 0 {
			t.Fatalf("worker %d wrote no tagged checkpoint (%v, %v)", s, files, err)
		}
	}

	// --- Phase 2: more traffic on top of the coordinated round.
	for i := 25; i < 40; i++ {
		offer(i, true)
	}
	sameReads("after the coordinated checkpoint")

	// --- Phase 3: SIGKILL worker 0 mid-stream; restart it cold. The router
	// must detect the lost state, roll the worker back to the coordinated
	// round, replay, and keep every decision identical.
	if err := workers[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = workers[0].Wait()
	workers[0] = startWorker(0)
	for i := 40; i < 65; i++ {
		offer(i, true)
	}
	// A restored worker's timelines restart empty (checkpoints hold no
	// delivered history), so from here the router's history lacks worker
	// 0's posts from before the coordinated round. The posts after it (ids
	// above 25) must still match, and the bounded reads must be exactly the
	// newest of the router's own whole history.
	for u := 0; u < 5; u++ {
		var whole, single, seven httpapi.TimelineResponse
		var stats httpapi.UserStatsResponse
		readJSON(t, fmt.Sprintf("%s/v1/timeline?user=%d&n=100000", routerBase, u), &whole)
		readJSON(t, fmt.Sprintf("%s/v1/timeline?user=%d&n=100000", singleBase, u), &single)
		readJSON(t, fmt.Sprintf("%s/v1/timeline?user=%d&n=7", routerBase, u), &seven)
		readJSON(t, fmt.Sprintf("%s/v1/users/%d/stats", routerBase, u), &stats)
		after := func(tl []httpapi.TimelinePost) []httpapi.TimelinePost {
			return slices.DeleteFunc(slices.Clone(tl), func(p httpapi.TimelinePost) bool { return p.ID <= 25 })
		}
		if w, g := after(single.Posts), after(whole.Posts); !slices.Equal(w, g) {
			t.Fatalf("after the worker SIGKILL: user %d's posts after the checkpoint: single %v, sharded %v", u, w, g)
		}
		if whole.Total != len(whole.Posts) || seven.Total != whole.Total ||
			!slices.Equal(seven.Posts, whole.Posts[len(whole.Posts)-min(7, len(whole.Posts)):]) {
			t.Fatalf("after the worker SIGKILL: user %d: n=7 read %+v is not the newest 7 of %+v", u, seven, whole)
		}
		if stats.TimelineSize != whole.Total || (whole.Total > 0 && stats.LastTimeMilli != whole.Posts[whole.Total-1].TimeMillis) {
			t.Fatalf("after the worker SIGKILL: user %d: stats %+v disagree with the timeline %+v", u, stats, whole)
		}
	}

	// --- Topology admin surface.
	var topo struct {
		Mode     string `json:"mode"`
		Shard    int    `json:"shard"`
		Shards   int    `json:"shards"`
		Digest   string `json:"digest"`
		PerShard []struct {
			Shard int    `json:"shard"`
			Peer  string `json:"peer"`
		} `json:"perShard"`
	}
	getJSON := func(url string, out any) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	if code := getJSON(routerBase+"/v1/admin/topology", &topo); code != http.StatusOK {
		t.Fatalf("router topology: status %d", code)
	}
	if topo.Mode != "router" || topo.Shard != -1 || topo.Shards != 2 || len(topo.PerShard) != 2 {
		t.Fatalf("router topology = %+v", topo)
	}
	routerDigest := topo.Digest
	if code := getJSON("http://"+workerAddrs[1]+"/v1/admin/topology", &topo); code != http.StatusOK {
		t.Fatalf("worker topology: status %d", code)
	}
	if topo.Mode != "worker" || topo.Shard != 1 || topo.Shards != 2 || topo.Digest != routerDigest {
		t.Fatalf("worker topology = %+v (router digest %s)", topo, routerDigest)
	}
	if code := getJSON(singleBase+"/v1/admin/topology", &topo); code != http.StatusServiceUnavailable {
		t.Fatalf("single-node topology: status %d, want 503 not_router", code)
	}

	// --- Phase 4: SIGKILL the router; restart it on its checkpoint. It rolls
	// every worker back to the coordinated round, and the whole
	// post-checkpoint suffix replays with identical ids and decisions.
	if err := router.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = router.Wait()
	router = startRouter()
	for _, p := range replayLog {
		got := ingestPost(t, routerBase, p.author, p.tm, p.text)
		if got.ID != p.id || !sameUsers(got.Delivered, p.users) {
			t.Fatalf("replayed %q: {id %d users %v}, want {id %d users %v}",
				p.text, got.ID, got.Delivered, p.id, p.users)
		}
	}
	// And the stream continues in lockstep.
	for i := 65; i < 75; i++ {
		offer(i, false)
	}

	// --- A router planned over a different topology (three peers) is refused
	// before it can touch any worker state: the boot barrier reports
	// shard_mismatch and the process exits non-zero.
	bad := exec.Command(bin, fleetArgs(freeAddr(t), func(c *connector.Config) {
		c.Router = &connector.RouterConfig{Peers: []string{
			"http://" + workerAddrs[0], "http://" + workerAddrs[1], "http://" + workerAddrs[0],
		}}
		c.Engine.Checkpoint.Dir = t.TempDir()
	})...)
	out, err := bad.CombinedOutput()
	if err == nil {
		t.Fatal("a 3-peer router over 2-shard workers started successfully")
	}
	if !strings.Contains(string(out), "shard_mismatch") {
		t.Fatalf("mismatched router output does not mention shard_mismatch:\n%s", out)
	}

	// --- A worker started with another lambda_c plans the same routing table
	// (the digest covers the graph and λa only) but would decide differently:
	// a router over it is refused at boot with shard_mismatch naming it. The
	// context bounds a router that wrongly boots and keeps serving.
	oddAddr := freeAddr(t)
	odd := start(fleetArgs(oddAddr, func(c *connector.Config) {
		c.Shard = &connector.ShardConfig{Index: 1, Count: 2}
		c.Engine.Checkpoint.Dir = t.TempDir()
		c.Engine.LambdaC--
	}))
	defer func() { _ = odd.Process.Kill() }()
	waitHealthy(t, "http://"+oddAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err = exec.CommandContext(ctx, bin, fleetArgs(freeAddr(t), func(c *connector.Config) {
		c.Router = &connector.RouterConfig{Peers: []string{"http://" + workerAddrs[0], "http://" + oddAddr}}
		c.Engine.Checkpoint.Dir = t.TempDir()
	})...).CombinedOutput()
	if err == nil || ctx.Err() != nil {
		t.Fatalf("a router over a worker with another lambda_c booted (exit %v):\n%s", err, out)
	}
	if !strings.Contains(string(out), "shard_mismatch") || !strings.Contains(string(out), oddAddr) {
		t.Fatalf("router over a worker with another lambda_c: output does not name shard_mismatch and %s:\n%s", oddAddr, out)
	}
	_ = odd.Process.Kill()
	_ = odd.Wait()

	// Graceful shutdown across the fleet.
	for _, cmd := range []*exec.Cmd{router, workers[0], workers[1], single} {
		_ = cmd.Process.Signal(os.Interrupt)
	}
	done := make(chan struct{})
	go func() {
		for _, cmd := range []*exec.Cmd{router, workers[0], workers[1], single} {
			_ = cmd.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("fleet did not shut down within 20s")
	}
}

// getBody GETs url and returns its status and body as one string.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %s", resp.StatusCode, body)
}

// readJSON GETs url and decodes its 200 JSON body into out.
func readJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
