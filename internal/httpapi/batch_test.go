package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

func ingestBatch(t *testing.T, ts *httptest.Server, req BatchIngestRequest) (*http.Response, BatchIngestResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/ingest/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out BatchIngestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

// TestBatchIngest replays TestIngestAndTimeline's scenario through one batch
// call: per-post decisions, ids and timeline state must match the
// one-at-a-time endpoint exactly.
func TestBatchIngest(t *testing.T) {
	ts := newTestServer(t)

	resp, out := ingestBatch(t, ts, BatchIngestRequest{Posts: []IngestRequest{
		{Author: 0, Text: "ferry sinks, 300 missing http://t.co/a", TimeMillis: 1000},
		{Author: 1, Text: "ferry sinks, 300 missing http://t.co/b", TimeMillis: 2000},
		{Author: 2, Text: "ferry sinks, 300 missing http://t.co/c", TimeMillis: 3000},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	for i, r := range out.Results {
		if r.ID != uint64(i+1) {
			t.Fatalf("post %d assigned id %d", i, r.ID)
		}
	}
	if d := out.Results[0].Delivered; len(d) != 1 || d[0] != 0 {
		t.Fatalf("post 0 delivered to %v, want [0]", d)
	}
	if d := out.Results[1].Delivered; len(d) != 0 {
		t.Fatalf("near-duplicate delivered to %v", d)
	}
	if d := out.Results[2].Delivered; len(d) != 1 || d[0] != 1 {
		t.Fatalf("post 2 delivered to %v, want [1]", d)
	}

	// The stream cursor advanced: a single ingest before the batch's last
	// timestamp is now rejected, and ids continue after the batch.
	resp, _ = ingest(t, ts, IngestRequest{Author: 0, Text: "old news", TimeMillis: 2500})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("pre-batch timestamp accepted with status %d", resp.StatusCode)
	}
	resp, single := ingest(t, ts, IngestRequest{Author: 2, Text: "fresh story entirely", TimeMillis: 4000})
	if resp.StatusCode != http.StatusOK || single.ID != 4 {
		t.Fatalf("follow-up ingest: status %d id %d, want 200 id 4", resp.StatusCode, single.ID)
	}

	// Timeline of user 0 holds exactly the batch's first post.
	r, err := http.Get(ts.URL + "/v1/timeline?user=0")
	if err != nil {
		t.Fatal(err)
	}
	var tl TimelineResponse
	if err := json.NewDecoder(r.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(tl.Posts) != 1 || tl.Posts[0].ID != 1 {
		t.Fatalf("user 0 timeline = %+v", tl.Posts)
	}
}

// TestBatchIngestParallel runs the same batch through the parallel backend.
func TestBatchIngestParallel(t *testing.T) {
	ts := newParallelTestServer(t, 2)

	resp, out := ingestBatch(t, ts, BatchIngestRequest{Posts: []IngestRequest{
		{Author: 0, Text: "ferry sinks off coast tonight", TimeMillis: 1000},
		{Author: 1, Text: "ferry sinks off coast tonight", TimeMillis: 2000},
		{Author: 2, Text: "markets rally on earnings surprise", TimeMillis: 3000},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	if d := out.Results[0].Delivered; len(d) == 0 {
		t.Fatalf("fresh post delivered to %v", d)
	}
	if d := out.Results[1].Delivered; len(d) != 0 {
		t.Fatalf("near-duplicate delivered to %v", d)
	}
	if d := out.Results[2].Delivered; len(d) == 0 {
		t.Fatalf("other-component post delivered to %v", d)
	}
}

func TestBatchIngestValidation(t *testing.T) {
	ts := newTestServer(t)

	for name, tc := range map[string]struct {
		req  BatchIngestRequest
		code int
	}{
		"empty batch": {BatchIngestRequest{}, http.StatusBadRequest},
		"empty text": {BatchIngestRequest{Posts: []IngestRequest{
			{Author: 0, Text: "fine here", TimeMillis: 1},
			{Author: 0, Text: "", TimeMillis: 2},
		}}, http.StatusBadRequest},
		"out of order inside batch": {BatchIngestRequest{Posts: []IngestRequest{
			{Author: 0, Text: "later post", TimeMillis: 10},
			{Author: 0, Text: "earlier post", TimeMillis: 5},
		}}, http.StatusConflict},
	} {
		t.Run(name, func(t *testing.T) {
			resp, _ := ingestBatch(t, ts, tc.req)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}

	// A rejected batch must leave the stream untouched: ingest at time 1
	// still succeeds with id 1.
	resp, out := ingest(t, ts, IngestRequest{Author: 0, Text: "first real post", TimeMillis: 1})
	if resp.StatusCode != http.StatusOK || out.ID != 1 {
		t.Fatalf("stream perturbed by rejected batches: status %d id %d", resp.StatusCode, out.ID)
	}

	// A batch starting before the stream cursor is rejected whole.
	resp, _ = ingestBatch(t, ts, BatchIngestRequest{Posts: []IngestRequest{
		{Author: 0, Text: "stale", TimeMillis: 0},
		{Author: 0, Text: "fresh", TimeMillis: 2},
	}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale batch accepted with status %d", resp.StatusCode)
	}
}

// TestTimelinesSequentialEqualsParallel: both backends keep their timelines
// in the same stream.Timelines store, fed from different places (under the
// sequential engine's decision lock; in each parallel worker's decision loop,
// merged by sequence number on read). The same stream — singles and batches
// interleaved — must leave every user's timeline identical.
func TestTimelinesSequentialEqualsParallel(t *testing.T) {
	seq, _ := serverPair(t, false)
	par, _ := serverPair(t, true)
	defer seq.Close()
	defer par.Close()
	rng := rand.New(rand.NewSource(21))
	now := int64(1000)
	nextPost := func() IngestRequest {
		now += int64(rng.Intn(5000))
		return IngestRequest{
			Author:     int32(rng.Intn(4)),
			Text:       fmt.Sprintf("story %d about topic %d with some shared words", rng.Intn(300), rng.Intn(12)),
			TimeMillis: now,
		}
	}
	for i := 0; i < 200; i++ {
		path, v := "/v1/ingest", any(nextPost())
		if i%2 == 1 {
			posts := make([]IngestRequest, 1+rng.Intn(40))
			for j := range posts {
				posts[j] = nextPost()
			}
			path, v = "/v1/ingest/batch", BatchIngestRequest{Posts: posts}
		}
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		a, b := postJSON(t, seq, path, string(body)), postJSON(t, par, path, string(body))
		if a.Code != http.StatusOK || a.Body.String() != b.Body.String() {
			t.Fatalf("request %d (%s): sequential %d %s, parallel %d %s", i, path, a.Code, a.Body, b.Code, b.Body)
		}
	}
	delivered := 0
	for u := 0; u < 3; u++ {
		path := fmt.Sprintf("/v1/timeline?user=%d&n=1000000", u)
		a, b := httptest.NewRecorder(), httptest.NewRecorder()
		seq.ServeHTTP(a, httptest.NewRequest("GET", path, nil))
		par.ServeHTTP(b, httptest.NewRequest("GET", path, nil))
		if a.Code != http.StatusOK || a.Body.String() != b.Body.String() {
			t.Fatalf("user %d: timelines differ between the sequential and the parallel backend", u)
		}
		var tl TimelineResponse
		if err := json.Unmarshal(a.Body.Bytes(), &tl); err != nil {
			t.Fatal(err)
		}
		delivered += len(tl.Posts)
	}
	if delivered < 600 {
		t.Fatalf("only %d timeline entries; the stream should fill several chunks per user", delivered)
	}
}

// TestTimelineTailMatchesWholeHistoryRead: the stream engine serves
// /v1/timeline and /v1/users/{id}/stats from its bounded tail read; an engine
// that offers only Timeline (the shape of a wrapper that forwards the Engine
// interface alone) is served from the whole history. Both must answer every
// user and n alike.
func TestTimelineTailMatchesWholeHistoryRead(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		tail, _ := serverPair(t, parallel)
		whole := NewFromEngine(struct{ Engine }{tail.engine})
		for i := 0; i < 300; i++ {
			ingestAt(t, tail, i%4, int64(1000+i*700), fmt.Sprintf("story %d about topic %d", i%37, i%5))
		}
		if n := len(tail.engine.Timeline(0)); n <= 7 {
			t.Fatalf("parallel=%v: user 0 received %d posts; the test wants more than n=7", parallel, n)
		}
		for u := 0; u <= 3; u++ {
			for _, path := range []string{
				fmt.Sprintf("/v1/timeline?user=%d", u),
				fmt.Sprintf("/v1/timeline?user=%d&n=1", u),
				fmt.Sprintf("/v1/timeline?user=%d&n=7", u),
				fmt.Sprintf("/v1/timeline?user=%d&n=1000000", u),
				fmt.Sprintf("/v1/users/%d/stats", u),
			} {
				a, b := httptest.NewRecorder(), httptest.NewRecorder()
				tail.ServeHTTP(a, httptest.NewRequest("GET", path, nil))
				whole.ServeHTTP(b, httptest.NewRequest("GET", path, nil))
				if a.Code != http.StatusOK || a.Body.String() != b.Body.String() {
					t.Fatalf("parallel=%v %s: tail read %d %s, whole-history read %d %s",
						parallel, path, a.Code, a.Body, b.Code, b.Body)
				}
			}
		}
		tail.Close()
	}
}
