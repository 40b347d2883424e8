package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/httpapi"
	"firehose/internal/twittergen"
)

// benchGraph is the pipeline benchmark's author graph: the generator's
// default 5,000-author graph at the given seed, G(0.7).
func benchGraph(t testing.TB, seed int64) *authorsim.Graph {
	t.Helper()
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(seed)), twittergen.DefaultGraphConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	return authorsim.BuildGraph(authorsim.NewVectors(social.Followees), 0.7)
}

// TestFromTableMatchesPlan: the table a worker serves rebuilds, through the
// JSON the endpoint writes, to exactly the assignment it planned — the same
// owner vector and the same digest — so a router that adopts it routes and
// fingerprints byte-identically to one that planned it.
func TestFromTableMatchesPlan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := benchGraph(t, seed)
		for n := 1; n <= 3; n++ {
			planned, err := Plan(g, n)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(planned.Table())
			if err != nil {
				t.Fatal(err)
			}
			table, err := decodeTable(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			adopted, err := FromTable(table)
			if err != nil {
				t.Fatalf("seed %d, %d shards: %v", seed, n, err)
			}
			if !slices.Equal(adopted.owner, planned.owner) {
				t.Fatalf("seed %d, %d shards: adopted owner vector differs from the planned one", seed, n)
			}
			if adopted.Digest() != planned.Digest() || adopted.NumShards() != n || adopted.NumAuthors() != 5000 {
				t.Fatalf("seed %d, %d shards: adopted %016x/%d shards/%d authors, planned %016x",
					seed, n, adopted.Digest(), adopted.NumShards(), adopted.NumAuthors(), planned.Digest())
			}
		}
	}
}

// TestFromTableRejectsMalformed: a table off the network is checked field by
// field, and a tampered one that passes the checks rebuilds to another
// digest.
func TestFromTableRejectsMalformed(t *testing.T) {
	planned, err := Plan(testGraph(), 3)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(fn func(*AssignmentTable)) AssignmentTable {
		tb := planned.Table()
		tb.Owners = slices.Clone(tb.Owners)
		fn(&tb)
		return tb
	}
	for name, tb := range map[string]AssignmentTable{
		"owner below zero":       edit(func(tb *AssignmentTable) { tb.Owners[4] = -1 }),
		"owner past shard count": edit(func(tb *AssignmentTable) { tb.Owners[4] = 3 }),
		"owner at int32 max":     edit(func(tb *AssignmentTable) { tb.Owners[0] = math.MaxInt32 }),
		"short owner vector":     edit(func(tb *AssignmentTable) { tb.Owners = tb.Owners[:11] }),
		"long owner vector":      edit(func(tb *AssignmentTable) { tb.Owners = append(tb.Owners, 0) }),
		"zero shards":            edit(func(tb *AssignmentTable) { tb.Shards = 0 }),
		"negative edges":         edit(func(tb *AssignmentTable) { tb.Edges = -1 }),
		"NaN lambda_a":           edit(func(tb *AssignmentTable) { tb.LambdaA = math.NaN() }),
		"lambda_a above one":     edit(func(tb *AssignmentTable) { tb.LambdaA = 2 }),
	} {
		if a, err := FromTable(tb); err == nil {
			t.Errorf("%s: FromTable accepted it (digest %016x)", name, a.Digest())
		}
	}

	flipped := edit(func(tb *AssignmentTable) { tb.Owners[5] = (tb.Owners[5] + 1) % 3 })
	a, err := FromTable(flipped)
	if err != nil {
		t.Fatalf("a well-formed table with one owner flipped: %v", err)
	}
	if a.Digest() == planned.Digest() {
		t.Fatal("flipping one owner kept the digest; the router could not tell the tables apart")
	}
}

// tablePeer is a fake worker for the boot barrier: it reports the given
// topology answer and serves GET /v1/shard/assignment through table.
func tablePeer(t *testing.T, topo httpapi.TopologyResponse, table http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/admin/topology", func(w http.ResponseWriter, _ *http.Request) {
		httpapi.WriteJSON(w, topo)
	})
	if table != nil {
		mux.HandleFunc("GET "+assignmentPath, table)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// serveTable answers the table endpoint with tb.
func serveTable(tb AssignmentTable) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { httpapi.WriteJSON(w, tb) }
}

// TestAdoptAssignment: a router adopts the table its real workers planned,
// byte-identical to planning it itself, and the stack it builds on the
// adopted table decides like a single node.
func TestAdoptAssignment(t *testing.T) {
	const inputs = "4f2a"
	planned, err := Plan(testGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]string, 2)
	servers := make([]*httptest.Server, 2)
	workers := make([]*Worker, 2)
	dirs := []string{t.TempDir(), t.TempDir()}
	// start runs shard s's worker over inputs at addr ("host:0" picks one).
	start := func(s int, inputs, addr string) {
		t.Helper()
		srv := newEquivServer(t)
		w, err := NewWorker(WorkerOptions{Server: srv, Shard: s, Assignment: planned, Inputs: inputs, CheckpointDir: dirs[s]})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = w.Close() })
		servers[s], workers[s] = ts, w
		peers[s] = ts.URL
	}
	for s := range peers {
		start(s, inputs, "127.0.0.1:0")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	adopted, err := AdoptAssignment(ctx, nil, peers, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.Digest() != planned.Digest() || !slices.Equal(adopted.owner, planned.owner) {
		t.Fatalf("adopted digest %016x, planned %016x", adopted.Digest(), planned.Digest())
	}

	rt, err := NewRouter(RouterOptions{Peers: peers, Assignment: adopted})
	if err != nil {
		t.Fatal(err)
	}
	rt.retryIvl, rt.resyncTO = 5*time.Millisecond, 5*time.Second
	defer rt.Close()
	if err := rt.InitialCoordination(); err != nil {
		t.Fatal(err)
	}
	single, sharded := newEquivServer(t), httpapi.NewFromEngine(rt)
	for i := 0; i < 40; i++ {
		author, tm, text := equivPost(i)
		var want, got httpapi.IngestResponse
		do(t, single, "POST", "/v1/ingest", ingestBody(author, tm, text), &want)
		if code, body := do(t, sharded, "POST", "/v1/ingest", ingestBody(author, tm, text), &got); code != http.StatusOK {
			t.Fatalf("post %d: %d %s", i, code, body)
		}
		if want.ID != got.ID || fmt.Sprint(want.Delivered) != fmt.Sprint(got.Delivered) {
			t.Fatalf("post %d: single %+v, adopted-table router %+v", i, want, got)
		}
	}

	// A worker started over other inputs is refused, naming it.
	if _, err := AdoptAssignment(ctx, nil, peers, "9c1d"); err == nil ||
		!strings.Contains(err.Error(), httpapi.CodeShardMismatch) || !strings.Contains(err.Error(), peers[0]) {
		t.Fatalf("AdoptAssignment over other inputs = %v, want a %s refusal naming %s", err, httpapi.CodeShardMismatch, peers[0])
	}

	// Worker 0 restarted mid-run over other inputs, at the same address and
	// over the same checkpoint directory: the router's resync refuses it
	// instead of replaying into an engine that would decide differently.
	servers[0].Close()
	_ = workers[0].Close()
	start(0, "9c1d", strings.TrimPrefix(peers[0], "http://"))
	i := 40
	for author, _, _ := equivPost(i); adopted.ShardOf(author) != 0; author, _, _ = equivPost(i) {
		i++
	}
	author, tm, text := equivPost(i)
	if code, body := do(t, sharded, "POST", "/v1/ingest", ingestBody(author, tm, text), nil); code == http.StatusOK ||
		!strings.Contains(body, httpapi.CodeShardMismatch) || !strings.Contains(body, "engine inputs") {
		t.Fatalf("forward to a worker restarted over other inputs = %d %s, want a %s refusal", code, body, httpapi.CodeShardMismatch)
	}
	// A coordination round refuses it as well, and writes no tagged
	// checkpoint on it.
	before, err := checkpoint.ListTagged(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.coordinate(); err == nil ||
		!strings.Contains(err.Error(), httpapi.CodeShardMismatch) || !strings.Contains(err.Error(), "engine inputs") {
		t.Fatalf("coordination round over a worker restarted over other inputs = %v, want a %s refusal", err, httpapi.CodeShardMismatch)
	}
	if after, err := checkpoint.ListTagged(dirs[0]); err != nil || len(after) != len(before) {
		t.Fatalf("the refused round left checkpoints %+v, had %+v (%v)", after, before, err)
	}
}

// TestAdoptAssignmentRefuses: every disagreement the barrier checks is a
// shard_mismatch refusal, and a peer from a build without the table endpoint
// is refused at once rather than polled until the deadline.
func TestAdoptAssignmentRefuses(t *testing.T) {
	const inputs = "4f2a"
	planned, err := Plan(testGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	digest := fmt.Sprintf("%016x", planned.Digest())
	topo := func(s int) httpapi.TopologyResponse {
		return httpapi.TopologyResponse{Mode: "worker", Shard: s, Shards: 2, Digest: digest, Inputs: inputs}
	}
	flipped := planned.Table()
	flipped.Owners = slices.Clone(flipped.Owners)
	flipped.Owners[5] = 1 - flipped.Owners[5]
	threeShards, err := Plan(testGraph(), 3)
	if err != nil {
		t.Fatal(err)
	}
	outOfRange := planned.Table()
	outOfRange.Owners = slices.Clone(outOfRange.Owners)
	outOfRange.Owners[0] = 7
	short := planned.Table()
	short.Owners = short.Owners[:10]

	for _, tc := range []struct {
		name  string
		peer0 httpapi.TopologyResponse
		table http.HandlerFunc
		want  string
	}{
		{"table with one owner flipped", topo(0), serveTable(flipped), "rebuilds to digest"},
		{"table for another shard count", topo(0), serveTable(threeShards.Table()), "for 3 shards"},
		{"table with an out-of-range owner", topo(0), serveTable(outOfRange), "invalid assignment table"},
		{"table shorter than its author count", topo(0), serveTable(short), "invalid assignment table"},
		{"peer over other inputs", func() httpapi.TopologyResponse { r := topo(0); r.Inputs = "9c1d"; return r }(), serveTable(planned.Table()), "engine inputs"},
		{"peer reporting no inputs", func() httpapi.TopologyResponse { r := topo(0); r.Inputs = ""; return r }(), serveTable(planned.Table()), "same firehosed build"},
		{"peer with another shard count", func() httpapi.TopologyResponse { r := topo(0); r.Shards = 3; return r }(), serveTable(planned.Table()), "reports shard 0/3"},
		{"peers disagreeing on the digest", func() httpapi.TopologyResponse { r := topo(0); r.Digest = "0000000000000001"; return r }(), serveTable(planned.Table()), "planned different routing tables"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers := []string{tablePeer(t, tc.peer0, tc.table).URL, tablePeer(t, topo(1), serveTable(planned.Table())).URL}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := AdoptAssignment(ctx, nil, peers, inputs)
			if err == nil || !strings.Contains(err.Error(), httpapi.CodeShardMismatch) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AdoptAssignment = %v, want a %s refusal mentioning %q", err, httpapi.CodeShardMismatch, tc.want)
			}
		})
	}

	for _, status := range []int{http.StatusNotFound, http.StatusMethodNotAllowed} {
		t.Run(fmt.Sprintf("peer answering the table with %d", status), func(t *testing.T) {
			old := tablePeer(t, topo(0), func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(status) })
			peers := []string{old.URL, tablePeer(t, topo(1), serveTable(planned.Table())).URL}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			_, err := AdoptAssignment(ctx, nil, peers, inputs)
			if err == nil || !strings.Contains(err.Error(), "same firehosed build") {
				t.Fatalf("AdoptAssignment = %v, want the same-build refusal", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("refusing a %d peer took %v of a 10s deadline, want it at once", status, took)
			}
		})
	}
}

// FuzzAssignmentTable: whatever a peer sends as its table, decoding and
// FromTable never panic, and an accepted table routes every int32 author to
// a shard in [0, Shards).
func FuzzAssignmentTable(f *testing.F) {
	planned, err := Plan(testGraph(), 3)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(planned.Table())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, int32(4))
	f.Add([]byte(`{"shards":2,"authors":3,"edges":1,"lambdaA":0.7,"owners":[0,1,1]}`), int32(-1))
	f.Add([]byte(`{"shards":1,"authors":1,"edges":0,"lambdaA":0.7,"owners":[2147483647]}`), int32(0))
	f.Add([]byte(`{"shards":9223372036854775807,"authors":0,"owners":[]}`), int32(math.MaxInt32))
	f.Add([]byte(`{"shards":-1,"authors":-1,"owners":null}`), int32(math.MinInt32))
	f.Add([]byte(`[1,2,3]`), int32(1))
	f.Fuzz(func(t *testing.T, data []byte, author int32) {
		table, err := decodeTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		a, err := FromTable(table)
		if err != nil {
			return
		}
		if a.NumShards() != table.Shards || a.NumAuthors() != table.Authors {
			t.Fatalf("accepted table %d shards/%d authors became %d/%d", table.Shards, table.Authors, a.NumShards(), a.NumAuthors())
		}
		check := func(author int32) {
			if s := a.ShardOf(author); s < 0 || s >= a.NumShards() {
				t.Fatalf("ShardOf(%d) = %d, outside [0,%d)", author, s, a.NumShards())
			}
		}
		for _, author := range []int32{author, -1, 0, math.MinInt32, math.MaxInt32, int32(a.NumAuthors()), int32(a.NumAuthors()) - 1} {
			check(author)
		}
		for author := range table.Owners {
			check(int32(author))
		}
	})
}
