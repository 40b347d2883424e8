//go:build !race

// The AllocsPerRun assertions live behind !race: the race detector
// instruments allocations and would report spurious counts.

package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// handlerAllocs serves pre-built requests into pre-built recorders — the
// shape of loadgen's httpapi.ingest_allocs_per_post stage — and returns the
// allocations per request. Posts rotate over three authors and distinct
// texts so some are delivered and some covered.
func handlerAllocs(t *testing.T, path string, postsPerRequest int) float64 {
	t.Helper()
	srv := newAPIServer(t)
	defer srv.Close()
	const runs = 200
	reqs := make([]*http.Request, runs+1) // AllocsPerRun adds one warm-up call
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	n := 0
	for i := range reqs {
		posts := make([]IngestRequest, postsPerRequest)
		for j := range posts {
			n++
			posts[j] = IngestRequest{
				Author:     int32(n % 3),
				Text:       fmt.Sprintf("story %d: R&D team <finds> %d ferries near the coast tonight", n%40, n%7),
				TimeMillis: int64(1000 * n),
			}
		}
		var v any = posts[0]
		if postsPerRequest > 1 {
			v = BatchIngestRequest{Posts: posts}
		}
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		srv.ServeHTTP(recs[i], reqs[i])
		i++
	})
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	return avg
}

// TestIngestHandlerAllocs pins the single-post handler's allocation count:
// 8 in this harness, 19 before the schema-specialised codec and the fused
// fingerprint (reflection decode, encoder state, the fingerprint's token
// slices). What remains is the recorder's per-request bookkeeping plus the
// post, its text and its delivery list; the bound leaves room for a Go
// release to move one or two.
func TestIngestHandlerAllocs(t *testing.T) {
	if avg := handlerAllocs(t, "/v1/ingest", 1); avg > 10 {
		t.Fatalf("POST /v1/ingest allocates %.1f objects per post, want at most 10", avg)
	}
}

// TestBatchHandlerAllocs pins the batch handler: per post only the text and,
// amortised over the batch, the slab, the pointer slice and the delivery
// arenas — 1.14 here, 5.5 before.
func TestBatchHandlerAllocs(t *testing.T) {
	const batch = 64
	if avg := handlerAllocs(t, "/v1/ingest/batch", batch) / batch; avg > 1.5 {
		t.Fatalf("POST /v1/ingest/batch allocates %.2f objects per post, want at most 1.5", avg)
	}
}
