package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	// Authors 0,1 similar; 2 isolated. Users: 0 follows {0,1}, 1 follows {2}.
	g := authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1}, {2}}, th)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(md))
	t.Cleanup(ts.Close)
	return ts
}

func ingest(t *testing.T, ts *httptest.Server, req IngestRequest) (*http.Response, IngestResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out IngestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func TestIngestAndTimeline(t *testing.T) {
	ts := newTestServer(t)

	resp, out := ingest(t, ts, IngestRequest{Author: 0, Text: "ferry sinks, 300 missing http://t.co/a", TimeMillis: 1000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Delivered) != 1 || out.Delivered[0] != 0 {
		t.Fatalf("delivered = %v, want [0]", out.Delivered)
	}

	// Near-duplicate from similar author 1: delivered to nobody.
	resp, out = ingest(t, ts, IngestRequest{Author: 1, Text: "ferry sinks, 300 missing http://t.co/b", TimeMillis: 2000})
	if resp.StatusCode != http.StatusOK || len(out.Delivered) != 0 {
		t.Fatalf("dup delivered to %v (status %d)", out.Delivered, resp.StatusCode)
	}

	// Same text by isolated author 2: delivered to user 1.
	_, out = ingest(t, ts, IngestRequest{Author: 2, Text: "ferry sinks, 300 missing http://t.co/c", TimeMillis: 3000})
	if len(out.Delivered) != 1 || out.Delivered[0] != 1 {
		t.Fatalf("delivered = %v, want [1]", out.Delivered)
	}

	// Timeline of user 0 holds exactly the first post.
	r, err := http.Get(ts.URL + "/v1/timeline?user=0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var tl TimelineResponse
	if err := json.NewDecoder(r.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Posts) != 1 || tl.Posts[0].Author != 0 || tl.Posts[0].ID != 1 {
		t.Fatalf("timeline = %+v", tl)
	}
}

func TestIngestValidation(t *testing.T) {
	ts := newTestServer(t)

	if resp, _ := ingest(t, ts, IngestRequest{Author: 0, Text: "", TimeMillis: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty text: status %d", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}

	// Out-of-order timestamps are rejected with 409.
	if resp, _ := ingest(t, ts, IngestRequest{Author: 0, Text: "later post words", TimeMillis: 5000}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d", resp.StatusCode)
	}
	if resp, _ := ingest(t, ts, IngestRequest{Author: 0, Text: "earlier post words", TimeMillis: 4000}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("out-of-order: status %d", resp.StatusCode)
	}
}

func TestTimelineValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, url := range []string{"/v1/timeline", "/v1/timeline?user=abc", "/v1/timeline?user=0&n=0", "/v1/timeline?user=0&n=x"} {
		r, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", url, r.StatusCode)
		}
	}
}

func TestTimelineLimit(t *testing.T) {
	ts := newTestServer(t)
	// Genuinely different stories from the isolated author 2, all kept —
	// the word sets are disjoint so the SimHash distances stay near 32.
	stories := []string{
		"ferry sinks off southern coast rescue underway tonight",
		"alibaba files landmark technology listing with regulators",
		"wildfire spreads across northern hills evacuations ordered",
		"senate passes budget amendment after marathon session",
		"astronomers detect unusual radio burst repeating pattern",
		"championship final decided by stoppage time penalty",
		"archaeologists uncover bronze age settlement near river",
		"central bank surprises markets with rate decision",
		"new vaccine trial reports strong immune response",
		"quarterly earnings beat expectations despite weak demand",
	}
	for i, story := range stories {
		_, out := ingest(t, ts, IngestRequest{
			Author: 2, Text: story, TimeMillis: int64(1000 * (i + 1)),
		})
		if len(out.Delivered) != 1 {
			t.Fatalf("post %d delivered to %v", i, out.Delivered)
		}
	}
	r, err := http.Get(ts.URL + "/v1/timeline?user=1&n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var tl TimelineResponse
	if err := json.NewDecoder(r.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Posts) != 3 {
		t.Fatalf("limited timeline has %d posts", len(tl.Posts))
	}
	// Most recent three: ids 8,9,10.
	if tl.Posts[0].ID != 8 || tl.Posts[2].ID != 10 {
		t.Fatalf("wrong window: %+v", tl.Posts)
	}
}

func TestStatsAndHealth(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, IngestRequest{Author: 0, Text: "some words here", TimeMillis: 1})

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 {
		t.Fatalf("stats = %+v", st)
	}

	h, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", h.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t)
	// GET on /v1/ingest must not match the POST route.
	r, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode == http.StatusOK {
		t.Fatal("GET /v1/ingest should not be routed")
	}
}
