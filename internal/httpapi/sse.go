package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// This file adds live delivery to the service: GET /v1/stream?user=N holds the
// connection open and pushes every future delivery for that user as a
// server-sent event (SSE) — the push half of the paper's Figure 1b
// deployment, where clients receive their diversified timeline without
// polling.

// subscriber is one open SSE connection.
type subscriber struct {
	user int32
	ch   chan TimelinePost
}

// broker fans deliveries out to SSE subscribers, indexed by user id so
// publishing costs the smaller of O(delivered users) and O(subscribed users
// × log delivered users), not O(subscribers × delivered users).
type broker struct {
	// mu guards: byUser, closed, subscribers, published, dropped, droppedByUser
	mu     sync.Mutex
	byUser map[int32]map[*subscriber]struct{}
	closed bool
	// subscribers tracks open subscriptions; published counts events placed
	// into subscriber buffers and dropped counts events a subscriber never
	// received — discarded because its buffer was full, or still buffered
	// (undelivered) when it disconnected. droppedByUser splits the same
	// count by user. All are surfaced on /metrics.
	subscribers   int
	published     uint64
	dropped       uint64
	droppedByUser map[int32]uint64
}

func newBroker() *broker {
	return &broker{
		byUser:        make(map[int32]map[*subscriber]struct{}),
		droppedByUser: make(map[int32]uint64),
	}
}

func (b *broker) subscribe(user int32) *subscriber {
	s := &subscriber{user: user, ch: make(chan TimelinePost, 64)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		// A closed broker hands out an already-closed channel so the
		// streaming handler returns immediately.
		close(s.ch)
		return s
	}
	set := b.byUser[user]
	if set == nil {
		set = make(map[*subscriber]struct{})
		b.byUser[user] = set
	}
	set[s] = struct{}{}
	b.subscribers++
	return s
}

func (b *broker) unsubscribe(s *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if set, ok := b.byUser[s.user]; ok {
		if _, present := set[s]; present {
			delete(set, s)
			b.subscribers--
			// Events still buffered in the channel were counted as published
			// but the client disconnected before reading them: they are drops,
			// not deliveries. (After close the subscriber is already gone from
			// byUser and the handler drains the closed channel instead, so
			// shutdown does not inflate the count.) No publish can race in —
			// we hold mu and the subscriber just left the index.
			if n := uint64(len(s.ch)); n > 0 {
				b.dropped += n
				b.droppedByUser[s.user] += n
			}
		}
		if len(set) == 0 {
			delete(b.byUser, s.user)
		}
	}
}

// publish pushes a delivered post to every subscriber of the delivered
// users, which are ascending, as every engine delivers them. It walks the
// shorter side: the delivered users, looking each up in the index, or, when
// fewer users have subscribers, the index, binary-searching each user in the
// delivered list. A subscriber belongs to one user and a post is delivered
// to a user once, so either walk sends each subscriber the post at most once.
// A slow subscriber (full buffer) misses the event rather than blocking
// ingestion — SSE consumers needing completeness re-read /timeline.
func (b *broker) publish(users []int32, p TimelinePost) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.byUser) < len(users) {
		for u, set := range b.byUser {
			if _, found := slices.BinarySearch(users, u); found {
				sent, full := send(set, p)
				b.published += sent
				if full > 0 {
					b.dropped += full
					b.droppedByUser[u] += full
				}
			}
		}
		return
	}
	for _, u := range users {
		sent, full := send(b.byUser[u], p)
		b.published += sent
		if full > 0 {
			b.dropped += full
			b.droppedByUser[u] += full
		}
	}
}

// send pushes p to every subscriber in set without blocking and returns how
// many took it and how many had a full buffer.
func send(set map[*subscriber]struct{}, p TimelinePost) (sent, full uint64) {
	for s := range set {
		select {
		case s.ch <- p:
			sent++
		default:
			full++
		}
	}
	return sent, full
}

// close closes every subscriber channel so streaming handlers unblock and
// return; subsequent subscribes get an already-closed channel. Used during
// graceful shutdown, where http.Server.Shutdown waits for the (otherwise
// endless) SSE handlers to finish.
func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, set := range b.byUser {
		for s := range set {
			close(s.ch)
		}
	}
	b.byUser = make(map[int32]map[*subscriber]struct{})
	b.subscribers = 0
}

func (b *broker) subscriberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.subscribers
}

func (b *broker) eventCounts() (published, dropped uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.dropped
}

// userDrops copies the per-user drop counts for /metrics.
func (b *broker) userDrops() map[int32]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[int32]uint64, len(b.droppedByUser))
	for u, n := range b.droppedByUser {
		out[u] = n
	}
	return out
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	user, err := strconv.ParseInt(r.URL.Query().Get("user"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadParam, "bad or missing user parameter")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeStreamingUnsupported, "streaming unsupported")
		return
	}
	sub := s.broker.subscribe(int32(user))
	defer s.broker.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case p, ok := <-sub.ch:
			if !ok {
				// Broker closed: the server is shutting down.
				return
			}
			data, err := json.Marshal(p)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: post\ndata: %s\n\n", data)
			flusher.Flush()
		}
	}
}

// UserStatsResponse is the GET /v1/users/{id}/stats body.
type UserStatsResponse struct {
	User          int32 `json:"user"`
	TimelineSize  int   `json:"timelineSize"`
	LastTimeMilli int64 `json:"lastTimeMillis"`
}

// handleUserStats answers from a one-post read: its total is the timeline's
// length and its post the newest time, so a router asks each shard for n=1.
func (s *Server) handleUserStats(w http.ResponseWriter, r *http.Request) {
	user, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadParam, "bad user id")
		return
	}
	last, total, terr := s.timelineTail(int32(user), 1)
	if terr != nil {
		writeError(w, http.StatusServiceUnavailable, CodeShardUnavailable, "%v", terr)
		return
	}
	resp := UserStatsResponse{User: int32(user), TimelineSize: total}
	if len(last) > 0 {
		resp.LastTimeMilli = last[0].Time
	}
	writeJSON(w, resp)
}
