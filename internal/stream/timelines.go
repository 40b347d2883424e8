package stream

import (
	"slices"

	"firehose/internal/core"
)

// Timelines is the delivered-post history of every user: the view the
// timeline endpoints read. Every worker of the engine owns one for the posts
// it decides (the inline engine's one worker, all of them), and it is
// deliberately not checkpointed (a rebuildable view, see checkpoint.go), so
// owners Reset it on restore.
//
// A delivered post is stored once, in an append-only log of fixed-size
// chunks that also records the owner's sequence number for the post (a
// multi-worker engine merges its workers' histories by it). A user's history is
// a list of uint32 positions into that log, so an append writes 4 bytes and
// no pointer, and the garbage collector scans one slot per delivered post
// instead of one per delivery. User ids are subscription indexes, so the
// per-user index is a dense slice grown on demand, not a map. Each history is
// a list of append-only chunks that never copies delivered history: the first
// chunk is small because most users receive little, and chunk capacity
// doubles up to timelineMaxChunk so a busy user costs one allocation per
// timelineMaxChunk deliveries.
//
// History is unbounded. Deliver panics rather than wrap once the log holds
// 2^32 posts, the range of a position; memory runs out long before that,
// because the log pins every delivered post's text.
//
// Timelines does no locking; the owning engine's mutex guards it.
type Timelines struct {
	log     [][]logEntry // chunks of timelineLogChunk entries; all but the last full
	users   [][][]uint32 // dense by user id: chunks of log positions, oldest first
	posts   uint64       // log length
	entries uint64       // positions across all users
}

// logEntry is one delivered post and the sequence number its owner
// delivered it at.
type logEntry struct {
	post *core.Post
	seq  uint64
}

const (
	timelineFirstChunk = 4
	timelineDoublings  = 7
	timelineMaxChunk   = timelineFirstChunk << timelineDoublings

	timelineLogShift = 10
	timelineLogChunk = 1 << timelineLogShift
	// timelineMaxPosts is the number of posts uint32 positions can address.
	timelineMaxPosts = 1 << 32
)

// Deliver records p, decided at sequence number seq, in the timeline of every
// listed user. Sequence numbers must increase from call to call; a post
// delivered to no one is not stored.
func (t *Timelines) Deliver(p *core.Post, seq uint64, users []int32) {
	if len(users) == 0 {
		return
	}
	if t.posts == timelineMaxPosts {
		panic("stream: the timeline log holds 2^32 posts, all a uint32 position can address; " +
			"a bounded store (ROADMAP 5(c)) must truncate it first")
	}
	pos := uint32(t.posts)
	if pos%timelineLogChunk == 0 {
		t.log = append(t.log, make([]logEntry, 0, timelineLogChunk))
	}
	last := &t.log[len(t.log)-1]
	*last = append(*last, logEntry{post: p, seq: seq})
	t.posts++
	t.entries += uint64(len(users))
	for _, u := range users {
		if int(u) >= len(t.users) {
			t.users = append(t.users, make([][][]uint32, int(u)+1-len(t.users))...)
		}
		tl := t.users[u]
		if k := len(tl); k == 0 || len(tl[k-1]) == cap(tl[k-1]) {
			tl = append(tl, make([]uint32, 0, timelineFirstChunk<<min(k, timelineDoublings)))
			t.users[u] = tl
		}
		c := &tl[len(tl)-1]
		*c = append(*c, pos)
	}
}

// history returns user u's position chunks; nil for a user that has received
// nothing (or does not exist).
func (t *Timelines) history(u int32) [][]uint32 {
	if u < 0 || int(u) >= len(t.users) {
		return nil
	}
	return t.users[u]
}

func historyLen(h [][]uint32) int {
	n := 0
	for _, c := range h {
		n += len(c)
	}
	return n
}

func (t *Timelines) at(pos uint32) logEntry {
	return t.log[pos>>timelineLogShift][pos&(timelineLogChunk-1)]
}

// Timeline returns a copy of user u's history, oldest first; empty for a user
// that has received nothing (or does not exist).
func (t *Timelines) Timeline(u int32) []*core.Post {
	h := t.history(u)
	out := make([]*core.Post, 0, historyLen(h))
	for _, c := range h {
		for _, pos := range c {
			out = append(out, t.at(pos).post)
		}
	}
	return out
}

// appendEntries appends user u's history to dst as log entries, oldest first.
func (t *Timelines) appendEntries(dst []logEntry, u int32) []logEntry {
	h := t.history(u)
	dst = slices.Grow(dst, historyLen(h))
	for _, c := range h {
		for _, pos := range c {
			dst = append(dst, t.at(pos))
		}
	}
	return dst
}

// Size reports the retained state: posts held in the log and per-user
// positions into it (one post delivered to k users counts k).
func (t *Timelines) Size() (posts, entries uint64) { return t.posts, t.entries }

// Reset drops every history and the log.
func (t *Timelines) Reset() { *t = Timelines{} }
