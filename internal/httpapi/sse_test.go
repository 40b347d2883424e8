package httpapi

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/core"
)

func TestSSEStreamDelivery(t *testing.T) {
	ts := newTestServer(t)

	// Open the SSE stream for user 0 (subscribed to authors 0,1).
	req, _ := http.NewRequest("GET", ts.URL+"/v1/stream?user=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	events := make(chan TimelinePost, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") {
				var p TimelinePost
				if json.Unmarshal([]byte(line[len("data: "):]), &p) == nil {
					events <- p
				}
			}
		}
	}()

	// Give the subscription a moment to register, then ingest.
	time.Sleep(50 * time.Millisecond)
	ingest(t, ts, IngestRequest{Author: 0, Text: "ferry sinks, hundreds missing http://t.co/a", TimeMillis: 1000})
	// A duplicate (pruned) must NOT produce an event.
	ingest(t, ts, IngestRequest{Author: 1, Text: "ferry sinks, hundreds missing http://t.co/b", TimeMillis: 2000})
	// A post by the author user 0 does not follow must not reach them.
	ingest(t, ts, IngestRequest{Author: 2, Text: "completely different other story", TimeMillis: 3000})

	select {
	case p := <-events:
		if p.Author != 0 || p.ID != 1 {
			t.Fatalf("unexpected event %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no SSE event received")
	}
	select {
	case p := <-events:
		t.Fatalf("unexpected extra event %+v", p)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestSSEValidation(t *testing.T) {
	ts := newTestServer(t)
	r, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user: status %d", r.StatusCode)
	}
}

func TestUserStats(t *testing.T) {
	ts := newTestServer(t)
	ingest(t, ts, IngestRequest{Author: 0, Text: "some words here now", TimeMillis: 5000})

	r, err := http.Get(ts.URL + "/v1/users/0/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st UserStatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.User != 0 || st.TimelineSize != 1 || st.LastTimeMilli != 5000 {
		t.Fatalf("stats %+v", st)
	}

	// Empty timeline.
	r2, err := http.Get(ts.URL + "/v1/users/1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var st2 UserStatsResponse
	if err := json.NewDecoder(r2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.TimelineSize != 0 || st2.LastTimeMilli != 0 {
		t.Fatalf("stats %+v", st2)
	}

	// Bad id.
	r3, err := http.Get(ts.URL + "/v1/users/abc/stats")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", r3.StatusCode)
	}
}

func TestBrokerSlowSubscriberDoesNotBlock(t *testing.T) {
	b := newBroker()
	s := b.subscribe(3)
	defer b.unsubscribe(s)
	// Overfill the buffer; publish must never block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			b.publish([]int32{3}, TimelinePost{ID: uint64(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}
	if len(s.ch) != cap(s.ch) {
		t.Fatalf("buffer should be full, has %d", len(s.ch))
	}
}

func TestBrokerRouting(t *testing.T) {
	b := newBroker()
	s1 := b.subscribe(1)
	s2 := b.subscribe(2)
	b.publish([]int32{1}, TimelinePost{ID: 9})
	if len(s1.ch) != 1 || len(s2.ch) != 0 {
		t.Fatalf("routing wrong: %d/%d", len(s1.ch), len(s2.ch))
	}
	b.unsubscribe(s1)
	b.publish([]int32{1}, TimelinePost{ID: 10})
	if len(s1.ch) != 1 {
		t.Fatal("unsubscribed channel still receiving")
	}
}

func TestBrokerIndexedPublish(t *testing.T) {
	b := newBroker()
	u1a := b.subscribe(1)
	u1b := b.subscribe(1)
	u2 := b.subscribe(2)
	u3 := b.subscribe(3)
	b.publish([]int32{1, 3}, TimelinePost{ID: 42})
	if len(u1a.ch) != 1 || len(u1b.ch) != 1 {
		t.Fatalf("user 1 subscribers got %d/%d events", len(u1a.ch), len(u1b.ch))
	}
	if len(u2.ch) != 0 {
		t.Fatal("undelivered user received an event")
	}
	if len(u3.ch) != 1 {
		t.Fatalf("user 3 got %d events", len(u3.ch))
	}
	b.unsubscribe(u1a)
	b.publish([]int32{1}, TimelinePost{ID: 43})
	if len(u1a.ch) != 1 || len(u1b.ch) != 2 {
		t.Fatalf("after unsubscribe: %d/%d", len(u1a.ch), len(u1b.ch))
	}
}

func TestBrokerClose(t *testing.T) {
	b := newBroker()
	s := b.subscribe(5)
	b.close()
	b.close() // idempotent
	if _, ok := <-s.ch; ok {
		t.Fatal("subscriber channel not closed by broker close")
	}
	// Publishing after close must not panic or deliver.
	b.publish([]int32{5}, TimelinePost{ID: 1})
	// A post-close subscribe gets an already-closed channel.
	late := b.subscribe(5)
	if _, ok := <-late.ch; ok {
		t.Fatal("post-close subscription channel open")
	}
	// Unsubscribing a closed-out subscriber is a harmless no-op.
	b.unsubscribe(s)
	b.unsubscribe(late)
}

func TestServerCloseEndsSSEStream(t *testing.T) {
	g := authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	md, err := core.NewSharedMultiUser(core.AlgUniBin, g, [][]int32{{0, 1}, {2}}, th)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(md)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/stream?user=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The body ends when the handler returns.
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("SSE stream still open after Server.Close")
	}
}
