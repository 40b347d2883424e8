package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// newAPIServer builds a Server over a tiny deterministic engine, unwrapped so
// tests can reach arm hooks like EnableCheckpoints.
func newAPIServer(t *testing.T) *Server {
	t.Helper()
	g := authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1}, {2}}, th)
	if err != nil {
		t.Fatal(err)
	}
	return New(md)
}

// Every 4xx/5xx path of the API, exercised end-to-end and compared byte for
// byte against a golden envelope. The golden files pin the public error
// contract: status code, content type and the exact JSON body — a drive-by
// change to a message or a code fails here first.

// goldenCase drives one error path against a fresh server.
type goldenCase struct {
	name string
	// request the error path. The server already holds one post at t=5000
	// (so disorder paths have a watermark to trip over).
	method, path, body string
	// wantStatus is asserted alongside the golden body.
	wantStatus int
	// arm customizes the server before the request (e.g. close the engine).
	arm func(t *testing.T, s *Server)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name:   "ingest_bad_json",
			method: "POST", path: "/v1/ingest", body: `{"author": nope}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "ingest_empty_text",
			method: "POST", path: "/v1/ingest", body: `{"author":0,"timeMillis":6000}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "ingest_disorder",
			method: "POST", path: "/v1/ingest", body: `{"author":0,"text":"late","timeMillis":4000}`,
			wantStatus: http.StatusConflict,
		},
		{
			name:   "ingest_engine_closed",
			method: "POST", path: "/v1/ingest", body: `{"author":0,"text":"x","timeMillis":6000}`,
			wantStatus: http.StatusServiceUnavailable,
			arm:        func(_ *testing.T, s *Server) { s.engine.Close() },
		},
		{
			name:   "ingest_disabled",
			method: "POST", path: "/v1/ingest", body: `{"author":0,"text":"x","timeMillis":6000}`,
			wantStatus: http.StatusServiceUnavailable,
			arm:        func(_ *testing.T, s *Server) { s.DisableHTTPIngest() },
		},
		{
			name:   "batch_ingest_disabled",
			method: "POST", path: "/v1/ingest/batch",
			body:       `{"posts":[{"author":0,"text":"a","timeMillis":6000}]}`,
			wantStatus: http.StatusServiceUnavailable,
			arm:        func(_ *testing.T, s *Server) { s.DisableHTTPIngest() },
		},
		{
			name:   "batch_bad_json",
			method: "POST", path: "/v1/ingest/batch", body: `[`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "batch_empty",
			method: "POST", path: "/v1/ingest/batch", body: `{"posts":[]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "batch_post_empty_text",
			method: "POST", path: "/v1/ingest/batch",
			body:       `{"posts":[{"author":0,"text":"a","timeMillis":6000},{"author":0,"text":"","timeMillis":7000}]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "batch_internal_disorder",
			method: "POST", path: "/v1/ingest/batch",
			body:       `{"posts":[{"author":0,"text":"a","timeMillis":7000},{"author":0,"text":"b","timeMillis":6000}]}`,
			wantStatus: http.StatusConflict,
		},
		{
			name:   "batch_starts_before_watermark",
			method: "POST", path: "/v1/ingest/batch",
			body:       `{"posts":[{"author":0,"text":"a","timeMillis":4000}]}`,
			wantStatus: http.StatusConflict,
		},
		{
			name:   "timeline_bad_user",
			method: "GET", path: "/v1/timeline?user=abc",
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "timeline_bad_n",
			method: "GET", path: "/v1/timeline?user=0&n=-1",
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "stream_bad_user",
			method: "GET", path: "/v1/stream",
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "user_stats_bad_id",
			method: "GET", path: "/v1/users/abc/stats",
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "admin_checkpoint_disabled",
			method: "POST", path: "/v1/admin/checkpoint",
			wantStatus: http.StatusServiceUnavailable,
		},
		{
			name:   "admin_checkpoints_disabled",
			method: "GET", path: "/v1/admin/checkpoints",
			wantStatus: http.StatusServiceUnavailable,
		},
		{
			name:   "admin_topology_not_router",
			method: "GET", path: "/v1/admin/topology",
			wantStatus: http.StatusServiceUnavailable,
		},
		{
			name:   "admin_checkpoint_failed",
			method: "POST", path: "/v1/admin/checkpoint",
			wantStatus: http.StatusInternalServerError,
			arm: func(t *testing.T, s *Server) {
				m, err := checkpoint.NewManager(t.TempDir(), 0, func(io.Writer) error {
					return fmt.Errorf("target exploded")
				})
				if err != nil {
					t.Fatal(err)
				}
				s.EnableCheckpoints(m)
			},
		},
	}
}

func TestErrorEnvelopesGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := newAPIServer(t)
			// One accepted post gives disorder cases a watermark.
			seed := httptest.NewRecorder()
			s.ServeHTTP(seed, httptest.NewRequest("POST", "/v1/ingest",
				strings.NewReader(`{"author":0,"text":"seed post","timeMillis":5000}`)))
			if seed.Code != http.StatusOK {
				t.Fatalf("seeding post: status %d: %s", seed.Code, seed.Body)
			}
			if tc.arm != nil {
				tc.arm(t, s)
			}

			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, body))

			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			compareGolden(t, tc.name, rec.Body.Bytes())

			// The envelope must also parse back into the documented shape with
			// a non-empty code.
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("envelope does not parse: %v", err)
			}
			if e.Code == "" || e.Error == "" {
				t.Fatalf("envelope missing code or error: %+v", e)
			}
		})
	}
}

// TestLegacyAliasSameEnvelope: the bad-user timeline read on /v1 still emits
// the byte-identical golden envelope, and the former unversioned alias no
// longer emits any API envelope — it is an unknown path (404).
func TestLegacyAliasSameEnvelope(t *testing.T) {
	s := newAPIServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/timeline?user=abc", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("/v1/timeline: status %d", rec.Code)
	}
	compareGolden(t, "timeline_bad_user", rec.Body.Bytes())

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/timeline?user=abc", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/timeline: status %d, want 404", rec.Code)
	}
	var e ErrorResponse
	if json.Unmarshal(rec.Body.Bytes(), &e) == nil && e.Code != "" {
		t.Fatalf("/timeline: unexpected API envelope %s", rec.Body.Bytes())
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
