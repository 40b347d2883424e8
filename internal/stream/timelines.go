package stream

import "firehose/internal/core"

// Timelines is the delivered-post history of every user: the view the
// timeline endpoints read. It is the one timeline store — the sequential
// MultiEngine and the HTTP layer's parallel adapter both own one — and it is
// deliberately not checkpointed (a rebuildable view, see checkpoint.go), so
// owners Reset it on restore.
//
// User ids are subscription indexes, so the per-user index is a dense slice
// grown on demand, not a map. Each history is a list of append-only chunks:
// an append writes one pointer and never copies delivered history, the first
// chunk is small because most users receive little, and chunk capacity
// doubles up to timelineMaxChunk so a busy user costs one allocation per
// timelineMaxChunk deliveries. History is unbounded, as before.
//
// Timelines does no locking; the owning engine's mutex guards it.
type Timelines struct {
	users []chunkedTimeline // dense by user id
}

// chunkedTimeline is one user's history, oldest first; every chunk but the
// last is full.
type chunkedTimeline [][]*core.Post

const (
	timelineFirstChunk = 4
	timelineDoublings  = 7
	timelineMaxChunk   = timelineFirstChunk << timelineDoublings
)

// Deliver appends p to the timeline of every listed user.
func (t *Timelines) Deliver(p *core.Post, users []int32) {
	for _, u := range users {
		if int(u) >= len(t.users) {
			t.users = append(t.users, make([]chunkedTimeline, int(u)+1-len(t.users))...)
		}
		tl := t.users[u]
		if k := len(tl); k == 0 || len(tl[k-1]) == cap(tl[k-1]) {
			tl = append(tl, make([]*core.Post, 0, timelineFirstChunk<<min(k, timelineDoublings)))
			t.users[u] = tl
		}
		last := &tl[len(tl)-1]
		*last = append(*last, p)
	}
}

// Timeline returns a copy of user u's history, oldest first; empty for a user
// that has received nothing (or does not exist).
func (t *Timelines) Timeline(u int32) []*core.Post {
	if u < 0 || int(u) >= len(t.users) {
		return []*core.Post{}
	}
	n := 0
	for _, c := range t.users[u] {
		n += len(c)
	}
	out := make([]*core.Post, 0, n)
	for _, c := range t.users[u] {
		out = append(out, c...)
	}
	return out
}

// Reset drops every history.
func (t *Timelines) Reset() { t.users = nil }
