package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// answer is one post's result in an ingest response.
type answer struct {
	ID        uint64  `json:"id"`
	Delivered []int32 `json:"delivered"`
}

// newConnClient returns a client that owns exactly one keep-alive connection:
// the ingest API is a totally ordered stream, so one in-flight request per
// stream is the protocol's real shape.
func newConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// do issues one request on client and returns a 2xx response's body. done is
// the instant the whole body had been read.
func do(ctx context.Context, client *http.Client, method, url string, body []byte) (data []byte, done time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, time.Time{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	data, err = io.ReadAll(resp.Body)
	done = time.Now()
	_ = resp.Body.Close() // fully read; nothing left to lose
	if err != nil {
		return nil, done, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, done, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, done, nil
}

// doJSON is do with the body decoded into out (nil discards it); done still
// precedes any decoding.
func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, out any) (done time.Time, err error) {
	data, done, err := do(ctx, client, method, url, body)
	if err != nil || out == nil {
		return done, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return done, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return done, nil
}

// frame is one SSE delivery as the subscriber saw it.
type frame struct {
	id uint64
	at time.Time // the instant the frame had been parsed
}

// subscriber is the loadgen's second connection: one GET /v1/stream for the
// subscribed user, read until cancelled.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	// mu protects frames and err (reader goroutine vs finish/count).
	mu     sync.Mutex
	frames []frame
	err    error
}

// subscribe opens the stream and returns once the response headers arrived —
// the daemon registers the subscription before it writes them, so no later
// delivery can be missed.
func subscribe(ctx context.Context, baseURL string, user int32) (*subscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/stream?user=%d", baseURL, user), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := newConnClient().Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/stream: %s", resp.Status)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer func() { _ = resp.Body.Close() }()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var p struct {
				ID uint64 `json:"id"`
			}
			err := json.Unmarshal([]byte(data), &p)
			now := time.Now()
			s.mu.Lock()
			if err != nil {
				s.err = fmt.Errorf("SSE frame %q: %w", data, err)
			}
			s.frames = append(s.frames, frame{id: p.ID, at: now})
			s.mu.Unlock()
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			s.mu.Lock()
			s.err = fmt.Errorf("SSE stream: %w", err)
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *subscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// finish waits (bounded) until want frames arrived, closes the stream and
// returns everything received.
func (s *subscriber) finish(want int, patience time.Duration) ([]frame, error) {
	deadline := time.Now().Add(patience)
	for s.count() < want && time.Now().Before(deadline) {
		select {
		case <-s.done:
			deadline = time.Now()
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames, s.err
}

// replay is what one pass of a workload's requests recorded.
type replay struct {
	start      time.Time
	sent       []time.Time     // per request: send instant (open loop: due instant)
	ack        []time.Duration // per request: sent → response read
	service    []time.Duration // per request: actual send → response read (== ack in a closed loop)
	late       []time.Duration // open loop: actual send − due
	ckpt       []time.Duration // per checkpoint call
	ingestWall time.Duration   // first send → last response, checkpoint calls subtracted
	// prefixWall[i] is the ingest wall time (checkpoints subtracted) once
	// request i was answered.
	prefixWall []time.Duration
}

// target is where a pass sends its requests.
type target struct {
	client  *http.Client
	baseURL string
	alive   func() error // non-nil error: a process behind baseURL died
	tr      *tracer      // non-nil: open a root span around every request
}

// span opens the client's root span for one request when tracing is on.
func (tg target) span(name string) (end func()) {
	if tg.tr == nil {
		return func() {}
	}
	sp := tg.tr.beginRequest(name)
	return func() { tg.tr.end(sp) }
}

// replayRequests sends bodies in order on one connection — closed loop, or
// on w's schedule for the open-loop workload — checking every answer, and
// issues the admin checkpoint synchronously from the same goroutine after
// every `every` requests. It stops at the first transport-level failure.
func replayRequests(ctx context.Context, tg target, w workload, bodies [][]byte, every int, chk *checker) (*replay, error) {
	path := "/v1/ingest"
	if w.batch > 1 {
		path = "/v1/ingest/batch"
	}
	r := &replay{
		sent:       make([]time.Time, len(bodies)),
		ack:        make([]time.Duration, len(bodies)),
		service:    make([]time.Duration, len(bodies)),
		prefixWall: make([]time.Duration, len(bodies)),
	}
	interval := time.Duration(0)
	if w.openLoop {
		interval = time.Second * time.Duration(w.batch) / time.Duration(w.postsPerSecond)
		r.late = make([]time.Duration, len(bodies))
	}
	var inCkpt time.Duration
	r.start = time.Now()
	for i, body := range bodies {
		sent := time.Now()
		wrote := sent
		if w.openLoop {
			due := r.start.Add(time.Duration(i) * interval)
			sleepUntil(due)
			wrote = time.Now()
			r.late[i] = wrote.Sub(due)
			sent = due
		}
		var answers []answer
		var done time.Time
		var err error
		endSpan := tg.span(spanIngest)
		if w.batch > 1 {
			var resp struct {
				Results []answer `json:"results"`
			}
			done, err = doJSON(ctx, tg.client, http.MethodPost, tg.baseURL+path, body, &resp)
			answers = resp.Results
		} else {
			answers = make([]answer, 1)
			done, err = doJSON(ctx, tg.client, http.MethodPost, tg.baseURL+path, body, &answers[0])
		}
		endSpan()
		if err != nil {
			chk.op(err)
			if dead := tg.alive(); dead != nil {
				return r, dead
			}
			return r, fmt.Errorf("request %d: %w", i+1, err)
		}
		r.sent[i] = sent
		r.ack[i] = done.Sub(sent)
		r.service[i] = done.Sub(wrote)
		r.prefixWall[i] = done.Sub(r.start) - inCkpt
		if len(answers) != w.batch {
			chk.op(fmt.Errorf("request %d: %d answers for %d posts", i+1, len(answers), w.batch))
		} else {
			chk.request(answers)
		}
		if (i+1)%every == 0 {
			t0 := time.Now()
			endSpan := tg.span(spanCheckpoint)
			_, err := doJSON(ctx, tg.client, http.MethodPost, tg.baseURL+"/v1/admin/checkpoint", nil, nil)
			endSpan()
			d := time.Since(t0)
			chk.op(err)
			if err != nil {
				if dead := tg.alive(); dead != nil {
					return r, dead
				}
				return r, fmt.Errorf("checkpoint after request %d: %w", i+1, err)
			}
			r.ckpt = append(r.ckpt, d)
			inCkpt += d
		}
	}
	r.ingestWall = r.prefixWall[len(bodies)-1]
	return r, nil
}

// readBack fetches the whole-run facts the checker compares: the /v1/stats
// accept/reject split and the fixed users' newest timeline ids.
func readBack(ctx context.Context, tg target, users int) (accepted, rejected uint64, timelines map[string][]uint64, err error) {
	var stats struct {
		Accepted uint64 `json:"accepted"`
		Rejected uint64 `json:"rejected"`
	}
	if _, err = doJSON(ctx, tg.client, http.MethodGet, tg.baseURL+"/v1/stats", nil, &stats); err != nil {
		return 0, 0, nil, err
	}
	timelines = make(map[string][]uint64)
	for _, u := range checkedUsers(users) {
		var tl struct {
			Posts []struct {
				ID uint64 `json:"id"`
			} `json:"posts"`
		}
		url := fmt.Sprintf("%s/v1/timeline?user=%d&n=%d", tg.baseURL, u, timelineTail)
		if _, err = doJSON(ctx, tg.client, http.MethodGet, url, nil, &tl); err != nil {
			return 0, 0, nil, err
		}
		ids := make([]uint64, len(tl.Posts))
		for i, p := range tl.Posts {
			ids[i] = p.ID
		}
		timelines[fmt.Sprint(u)] = ids
	}
	return stats.Accepted, stats.Rejected, timelines, nil
}
