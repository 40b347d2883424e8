package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/httpapi"
)

// testGraph builds a 12-author graph with six connected components of mixed
// sizes: {0,1,2}, {3,4}, {6,7}, {9,10,11} and the singletons {5}, {8}.
func testGraph() *authorsim.Graph {
	return authorsim.NewGraph(12, []authorsim.SimPair{
		{A: 0, B: 1}, {A: 1, B: 2},
		{A: 3, B: 4},
		{A: 6, B: 7},
		{A: 9, B: 10}, {A: 10, B: 11}, {A: 9, B: 11},
	}, 0.7)
}

func TestPlanPartitionInvariants(t *testing.T) {
	g := testGraph()
	for _, shards := range []int{1, 2, 3, 4} {
		a, err := Plan(g, shards)
		if err != nil {
			t.Fatalf("Plan(%d): %v", shards, err)
		}
		if a.NumShards() != shards || a.NumAuthors() != 12 {
			t.Fatalf("Plan(%d): shards %d authors %d", shards, a.NumShards(), a.NumAuthors())
		}
		// Every component lives wholly on one shard — the decision-independence
		// unit is the routing unit.
		for ci, comp := range g.Components() {
			owner := a.ShardOf(comp[0])
			if owner < 0 || owner >= shards {
				t.Fatalf("Plan(%d): component %d on shard %d", shards, ci, owner)
			}
			for _, author := range comp {
				if a.ShardOf(author) != owner {
					t.Fatalf("Plan(%d): author %d routes to %d, its component %d lives on %d",
						shards, author, a.ShardOf(author), ci, owner)
				}
			}
		}
		// Planning twice over the same inputs is byte-identical routing.
		b, err := Plan(testGraph(), shards)
		if err != nil {
			t.Fatal(err)
		}
		if b.Digest() != a.Digest() {
			t.Fatalf("Plan(%d) digest not deterministic: %016x vs %016x", shards, a.Digest(), b.Digest())
		}
		for author := int32(0); author < 12; author++ {
			if a.ShardOf(author) != b.ShardOf(author) {
				t.Fatalf("Plan(%d): author %d routed to %d then %d", shards, author, a.ShardOf(author), b.ShardOf(author))
			}
		}
	}
}

func TestPlanDigestDiscriminates(t *testing.T) {
	g := testGraph()
	a2, _ := Plan(g, 2)
	a4, _ := Plan(g, 4)
	if a2.Digest() == a4.Digest() {
		t.Fatal("2-shard and 4-shard plans share a digest")
	}
	// A different edge set is a different digest even at the same shard count.
	other := authorsim.NewGraph(12, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	b2, _ := Plan(other, 2)
	if b2.Digest() == a2.Digest() {
		t.Fatal("plans over different graphs share a digest")
	}
}

func TestShardOfOutOfRange(t *testing.T) {
	a, _ := Plan(testGraph(), 3)
	if got := a.ShardOf(-1); got != 0 {
		t.Fatalf("ShardOf(-1) = %d, want 0", got)
	}
	if got := a.ShardOf(99); got != 0 {
		t.Fatalf("ShardOf(99) = %d, want 0", got)
	}
}

func TestPlanRejectsBadInputs(t *testing.T) {
	if _, err := Plan(nil, 2); err == nil {
		t.Fatal("Plan(nil) succeeded")
	}
	if _, err := Plan(testGraph(), 0); err == nil {
		t.Fatal("Plan(shards=0) succeeded")
	}
}

func TestTopologyHeaderRoundTrip(t *testing.T) {
	v := formatTopology(0xdeadbeefcafef00d, 2, 4)
	if v != "deadbeefcafef00d/2/4" {
		t.Fatalf("formatTopology = %q", v)
	}
	digest, shard, shards, err := parseTopology(v)
	if err != nil || digest != 0xdeadbeefcafef00d || shard != 2 || shards != 4 {
		t.Fatalf("parseTopology(%q) = %x/%d/%d, %v", v, digest, shard, shards, err)
	}
	for _, bad := range []string{"", "abc", "zz/1/2", "1/2", "0001/x/2", "0001/1/x", "1/2/3/4"} {
		if _, _, _, err := parseTopology(bad); err == nil {
			t.Errorf("parseTopology(%q) succeeded", bad)
		}
	}
}

// topologyPeer serves a worker's topology answer for shard 0 of 1 with the
// given digest, and 503 until ready reports true.
func topologyPeer(t *testing.T, digest string, ready func() bool) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready() {
			http.Error(w, "booting", http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(httpapi.TopologyResponse{Mode: "worker", Shard: 0, Shards: 1, Digest: digest})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestAwaitPeersNoticesLatePeer: a worker that becomes ready 30ms into the
// boot barrier is noticed within a few milliseconds, whatever the router's
// RetryInterval (left at its 200ms default here), and a worker planned under
// another assignment is still refused with shard_mismatch.
func TestAwaitPeersNoticesLatePeer(t *testing.T) {
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	digest := fmt.Sprintf("%016x", assign.Digest())
	var readyAt atomic.Int64
	readyAt.Store(time.Now().Add(time.Hour).UnixNano())
	peer := topologyPeer(t, digest, func() bool { return time.Now().UnixNano() >= readyAt.Load() })
	rt, err := NewRouter(RouterOptions{Peers: []string{peer.URL}, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ready := time.Now().Add(30 * time.Millisecond)
	readyAt.Store(ready.UnixNano())
	if err := rt.AwaitPeers(ctx); err != nil {
		t.Fatal(err)
	}
	if late := time.Since(ready); late > 60*time.Millisecond {
		t.Fatalf("AwaitPeers returned %v after the peer became ready, want within 60ms", late)
	}

	foreign := topologyPeer(t, fmt.Sprintf("%016x", assign.Digest()^1), func() bool { return true })
	rt2, err := NewRouter(RouterOptions{Peers: []string{foreign.URL}, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if err := rt2.AwaitPeers(ctx); err == nil || !strings.Contains(err.Error(), httpapi.CodeShardMismatch) {
		t.Fatalf("AwaitPeers on a foreign peer = %v, want a %s refusal", err, httpapi.CodeShardMismatch)
	}
}

// TestAwaitPeersHonoursContextDuringProbe: a peer that accepts connections
// and never answers must not hold the barrier past its context, even on a
// client with no timeout of its own.
func TestAwaitPeersHonoursContextDuringProbe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterOptions{Peers: []string{"http://" + ln.Addr().String()}, Assignment: assign, Client: &http.Client{}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rt.AwaitPeers(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("AwaitPeers = %v, want the context's deadline error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("AwaitPeers still blocked 1s after its 100ms context on a peer that never answers")
	}
}

// TestRouterRestoreRefusesForeignCheckpoint: a router checkpoint names the
// shard count and assignment digest it was coordinated under; RestoreState
// on a differently planned router must refuse with shard_mismatch before it
// contacts a single worker. The peers here are unroutable on purpose — any
// attempt to talk to them would hang past the test deadline.
func TestRouterRestoreRefusesForeignCheckpoint(t *testing.T) {
	two, err := Plan(testGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Plan(testGraph(), 4)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-encode the state a 2-shard router would have snapshotted.
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "test.Router")
	enc.String("router")
	enc.Uvarint(2)
	enc.U64(two.Digest())
	enc.Uvarint(10)
	enc.Uvarint(6)
	enc.Uvarint(4)
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}

	rt, err := NewRouter(RouterOptions{
		Peers: []string{
			"http://192.0.2.1:1", "http://192.0.2.1:2",
			"http://192.0.2.1:3", "http://192.0.2.1:4",
		},
		Assignment:    four,
		RetryInterval: time.Millisecond,
		ResyncTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restoreErr := rt.RestoreState(dec)
	if restoreErr == nil || !strings.Contains(restoreErr.Error(), httpapi.CodeShardMismatch) {
		t.Fatalf("RestoreState = %v, want a shard_mismatch refusal", restoreErr)
	}
	if !strings.Contains(restoreErr.Error(), "2 shards") || !strings.Contains(restoreErr.Error(), "4 shards") {
		t.Fatalf("refusal %q should name both shard counts", restoreErr)
	}
}

// TestRouterCheckpointRoundTrip pins the router's own checkpoint section:
// SnapshotState at a coordinated round, more traffic, then RestoreState on a
// fresh router over the same workers must bring back exactly the round's
// watermark and per-shard sequences, consume every byte the encoder wrote,
// and roll each worker back to its recorded sequence.
func TestRouterCheckpointRoundTrip(t *testing.T) {
	st := newShardedStack(t, 2)
	ingest := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			author, tm, text := equivPost(i)
			if code, body := do(t, st.api, "POST", "/v1/ingest", ingestBody(author, tm, text), nil); code != http.StatusOK {
				t.Fatalf("post %d: %d %s", i, code, body)
			}
		}
	}
	ingest(0, 30)

	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "test.Router")
	if err := st.router.SnapshotState(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	want := st.router.Topology()
	if want.Watermark != 30 || want.CoordinatedWatermark != 30 {
		t.Fatalf("snapshot round at watermark %d/%d, want 30/30", want.Watermark, want.CoordinatedWatermark)
	}
	ingest(30, 50)

	rt, err := NewRouter(RouterOptions{
		Peers:         []string{st.servers[0].URL, st.servers[1].URL},
		Assignment:    st.assign,
		RetryInterval: 5 * time.Millisecond,
		ResyncTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RestoreState(dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatalf("router section not consumed exactly: %v", err)
	}

	got := rt.Topology()
	if got.Watermark != want.Watermark || got.CoordinatedWatermark != want.CoordinatedWatermark {
		t.Fatalf("restored watermark %d/%d, snapshotted %d/%d",
			got.Watermark, got.CoordinatedWatermark, want.Watermark, want.CoordinatedWatermark)
	}
	for s := range want.PerShard {
		if got.PerShard[s].Watermark != want.PerShard[s].Watermark || got.PerShard[s].Pending != 0 {
			t.Fatalf("shard %d restored at sequence %d (pending %d), snapshotted %d",
				s, got.PerShard[s].Watermark, got.PerShard[s].Pending, want.PerShard[s].Watermark)
		}
		if w := st.workers[s].topologyResponse().Watermark; w != want.PerShard[s].Watermark {
			t.Fatalf("worker %d rolled back to %d, the checkpoint recorded %d", s, w, want.PerShard[s].Watermark)
		}
	}
}
