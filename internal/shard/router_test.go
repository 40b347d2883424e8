package shard

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"firehose/internal/checkpoint"
	"firehose/internal/core"
	"firehose/internal/stream"
)

// routerGoroutines returns the stacks of goroutines inside the router's
// request and wait code.
func routerGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var in []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "shard.(*Router)") || strings.Contains(g, "shard.retry(") || strings.Contains(g, "shard.control(") {
			in = append(in, g)
		}
	}
	return in
}

// TestRouterCloseEndsEveryWait: with a worker gone, a forward waits for it
// inside its resync and a merged read retries it, each for up to the resync
// window. Close ends both at once — the forward with stream.ErrClosed, the
// read with 503 shard_unavailable — and leaves no router goroutine behind.
func TestRouterCloseEndsEveryWait(t *testing.T) {
	st := newShardedStack(t, 2) // resync timeout 5s
	st.servers[0].Close()
	author := int32(0)
	for st.assign.ShardOf(author) != 0 {
		author++
	}

	forwarded := make(chan error, 1)
	go func() {
		_, err := st.router.Offer(core.NewPost(1, author, 1000, "a post for the gone worker"))
		forwarded <- err
	}()
	read := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		st.api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/timeline?user=0", nil))
		read <- rec.Code
	}()
	time.Sleep(200 * time.Millisecond)
	closed := time.Now()
	st.router.Close()

	select {
	case err := <-forwarded:
		if !errors.Is(err, stream.ErrClosed) {
			t.Fatalf("the forward ended with %v, want %v", err, stream.ErrClosed)
		}
	case <-time.After(time.Second):
		t.Fatal("the forward still waits 1s after Close")
	}
	select {
	case code := <-read:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("the merged read answered %d after Close, want 503", code)
		}
	case <-time.After(time.Second - time.Since(closed)):
		t.Fatal("the merged read still waits 1s after Close")
	}

	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		left := routerGoroutines()
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d router goroutine(s) outlived Close:\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
}

// TestRouterMetricsScrapeOneAttempt: /v1/metrics reads the workers' counters
// with one attempt per shard, so a dead worker costs a scrape one refused
// request, not the resync window.
func TestRouterMetricsScrapeOneAttempt(t *testing.T) {
	st := newShardedStack(t, 2) // resync timeout 5s
	defer st.router.Close()
	st.servers[1].Close()
	start := time.Now()
	if code, body := do(t, st.api, "GET", "/v1/metrics", "", nil); code != http.StatusOK {
		t.Fatalf("GET /v1/metrics with a dead worker: %d %s", code, body)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the scrape took %v with a dead worker, want one attempt per shard", took)
	}
}

// TestRouterRestoreRefusesWorkerWithoutRestore: a worker answering
// POST /v1/shard/restore with 404 runs another build, and waiting does not
// change its build, so RestoreState fails at once instead of retrying it for
// the resync window.
func TestRouterRestoreRefusesWorkerWithoutRestore(t *testing.T) {
	assign, err := Plan(testGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	old := httptest.NewServer(http.NotFoundHandler())
	defer old.Close()
	rt, err := NewRouter(RouterOptions{
		Peers:      []string{old.URL},
		Assignment: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.retryIvl, rt.resyncTO = 5*time.Millisecond, 5*time.Second
	defer rt.Close()

	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "test.Router")
	enc.String("router")
	enc.Uvarint(1)
	enc.U64(assign.Digest())
	enc.Uvarint(10)
	enc.Uvarint(10)
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = rt.RestoreState(dec)
	if err == nil || !strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "same firehosed build") {
		t.Fatalf("RestoreState = %v, want the same-build refusal of a 404", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("refusing a 404 took %v of a 5s window, want it at once", took)
	}
}
