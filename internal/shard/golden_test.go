package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"firehose/internal/httpapi"
	"firehose/internal/ingeststream"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// The inter-shard surface answers with the same JSON error envelope as the
// rest of the API — over HTTP for the Upgrade request and the control
// endpoints, inside an error reply frame on the stream; these goldens pin the
// sharding-specific codes (shard_mismatch, shard_desync) byte for byte, the
// same way the httpapi suite pins the single-node codes. The test graph and
// its assignment digest are deterministic, so the messages are stable.

func TestShardErrorEnvelopesGolden(t *testing.T) {
	assign, err := Plan(testGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	goodTopo := formatTopology(assign.Digest(), 0, 2)
	cases := []struct {
		name string
		// A case is one frame on a stream dialled with topo (empty omits the
		// header; a refused Upgrade is the case's answer), or, with path set,
		// one control request.
		frame      ingeststream.Request
		path, body string
		topo       string
		wantStatus int
		wantCode   string
	}{
		{
			name:       "shard_ingest_no_topology",
			wantStatus: http.StatusConflict, wantCode: httpapi.CodeShardMismatch,
		},
		{
			name:       "shard_ingest_wrong_digest",
			topo:       formatTopology(0xbadc0ffee, 0, 2),
			wantStatus: http.StatusConflict, wantCode: httpapi.CodeShardMismatch,
		},
		{
			name:       "shard_ingest_missing_id",
			frame:      ingeststream.Request{Author: 0, TimeMillis: 1000, Text: "x"},
			topo:       goodTopo,
			wantStatus: http.StatusBadRequest, wantCode: httpapi.CodeBadParam,
		},
		{
			name:       "shard_ingest_foreign_author",
			frame:      ingeststream.Request{ID: 1, Author: 9, TimeMillis: 1000, Text: "x"},
			topo:       goodTopo,
			wantStatus: http.StatusConflict, wantCode: httpapi.CodeShardMismatch,
		},
		{
			name:       "shard_ingest_desync",
			frame:      ingeststream.Request{ID: 7, Prev: 5, Author: 0, TimeMillis: 1000, Text: "x"},
			topo:       goodTopo,
			wantStatus: http.StatusConflict, wantCode: httpapi.CodeShardDesync,
		},
		{
			name: "shard_restore_no_checkpoint",
			path: "/v1/shard/restore", body: `{"watermark":42}`,
			topo:       goodTopo,
			wantStatus: http.StatusConflict, wantCode: httpapi.CodeShardMismatch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newEquivServer(t)
			w, err := NewWorker(WorkerOptions{Server: srv, Shard: 0, Assignment: assign, CheckpointDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			var status int
			var envelope []byte
			if tc.path != "" {
				req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body))
				req.Header.Set(TopologyHeader, tc.topo)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				status, envelope = rec.Code, rec.Body.Bytes()
			} else {
				ts := httptest.NewServer(srv)
				defer ts.Close()
				sc, upgradeStatus, body, err := dialStream(http.DefaultTransport, ts.URL, tc.topo, 0)
				if err != nil {
					t.Fatal(err)
				}
				if status, envelope = upgradeStatus, body; sc != nil {
					defer sc.Close()
					if _, status, envelope, _, err = roundTrip(sc, []ingeststream.Request{tc.frame}, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.wantStatus, envelope)
			}
			compareGolden(t, tc.name, envelope)
			var env httpapi.ErrorResponse
			if err := json.Unmarshal(envelope, &env); err != nil {
				t.Fatalf("envelope does not parse: %v", err)
			}
			if env.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", env.Code, tc.wantCode)
			}
			if got := srv.IDWatermark(); got != 0 {
				t.Fatalf("a refused request moved the worker's watermark to %d", got)
			}
		})
	}
}

// TestRouterTimelineUnavailableGolden pins the router-side read failure: a
// merged read that cannot reach every shard within the resync window answers
// 503 shard_unavailable through the same envelope, naming the lowest failing
// shard — never a silently partial timeline.
func TestRouterTimelineUnavailableGolden(t *testing.T) {
	assign, err := Plan(testGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Port 1 and 2 refuse instantly, so the retry loop spins until the resync
	// window closes and the message's duration renders stably as "50ms".
	rt, err := NewRouter(RouterOptions{
		Peers:      []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Assignment: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.retryIvl, rt.resyncTO = time.Millisecond, 50*time.Millisecond
	api := httpapi.NewFromEngine(rt)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/timeline?user=0", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", rec.Code, rec.Body)
	}
	compareGolden(t, "timeline_shard_unavailable", rec.Body.Bytes())
	var env httpapi.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope does not parse: %v", err)
	}
	if env.Code != httpapi.CodeShardUnavailable {
		t.Fatalf("code = %q, want %q", env.Code, httpapi.CodeShardUnavailable)
	}
}

// TestRouterStatsUnavailableGolden pins the counters counterpart of the
// timeline read: GET /v1/stats on a router that cannot reach every shard
// within the resync window answers 503 shard_unavailable naming the lowest
// failing shard — never 200 with the reachable shards' partial sum.
func TestRouterStatsUnavailableGolden(t *testing.T) {
	assign, err := Plan(testGraph(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterOptions{
		Peers:      []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Assignment: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.retryIvl, rt.resyncTO = time.Millisecond, 50*time.Millisecond
	api := httpapi.NewFromEngine(rt)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", rec.Code, rec.Body)
	}
	compareGolden(t, "stats_shard_unavailable", rec.Body.Bytes())
	var env httpapi.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope does not parse: %v", err)
	}
	if env.Code != httpapi.CodeShardUnavailable {
		t.Fatalf("code = %q, want %q", env.Code, httpapi.CodeShardUnavailable)
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			t.Fatalf("golden file %s missing; run with -update", path)
		}
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope drifted from golden %s:\n got: %s\nwant: %s", path, got, want)
	}
}
