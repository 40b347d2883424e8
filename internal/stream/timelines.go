package stream

import (
	"encoding/binary"
	"math/bits"
	"strings"
	"unsafe"

	"firehose/internal/core"
)

// Timelines is the delivered-post history of every user: the view the
// timeline endpoints read. Every worker of the engine owns one for the posts
// it decides (the inline engine's one worker, all of them), and it is
// deliberately not checkpointed (a rebuildable view, see checkpoint.go), so
// owners Reset it on restore.
//
// Deliver copies what a read serves — id, author, time and text — into
// storage the store owns, so nothing the caller allocated stays reachable
// once it returns, and nothing the store holds is a pointer the garbage
// collector must scan apart from the chunk slice headers:
//
//   - A delivered post is stored once, as a fixed-size record in an
//     append-only log of timelineLogChunk-record chunks. The record also
//     holds the owner's sequence number for the post (a multi-worker engine
//     merges its workers' histories by it) and where its text lies. The
//     fingerprint is not kept: no read serves it.
//   - Texts are appended to byte blocks of timelineTextBlock bytes, each
//     allocated once at full capacity and never re-grown. A text that does
//     not fit the open block starts a new one; a longer text gets an
//     exact-size block of its own.
//   - A user's history is its log positions, which strictly increase, stored
//     as uvarint deltas in byte chunks. Chunks start at timelineFirstChunk
//     bytes and double up to timelineMaxChunk, so most users, who receive
//     little, cost little, and a busy user costs one allocation per
//     timelineMaxChunk bytes. A varint never straddles two chunks. User ids
//     are subscription indexes, so the per-user index is a dense slice grown
//     on demand, not a map.
//
// History is unbounded. Deliver panics rather than wrap once the log holds
// 2^32 posts, the range of a position; memory runs out long before that.
//
// Timelines does no locking; the owning engine's mutex guards it.
type Timelines struct {
	log     [][]record // chunks of timelineLogChunk records; all but the last full
	blocks  [][]byte   // text blocks
	open    int        // index of the block short texts are appended to
	users   []history  // dense by user id
	full    [][][]byte // dense by user id: each user's full position chunks, oldest first
	posts   uint64     // log length
	entries uint64     // positions across all users
	bytes   uint64     // capacity of the log chunks, text blocks and position chunks
}

// record is one delivered post: what a timeline read serves, the sequence
// number its owner delivered it at, and where its text lies — size bytes of
// blocks[block] from off.
type record struct {
	id     uint64
	seq    uint64
	time   int64
	author int32
	block  uint32
	off    uint32
	size   uint32
}

// history is what an append to one user's log positions touches, 32 bytes:
// the chunk being appended to and the position count. Positions are
// delta-coded: each uvarint is the distance from the previous position (the
// first, from 0). The user's earlier chunks are in Timelines.full.
type history struct {
	cur  []byte
	last uint32 // the newest position
	n    uint32 // positions held
}

const (
	timelineFirstChunk = 16
	timelineDoublings  = 7
	timelineMaxChunk   = timelineFirstChunk << timelineDoublings

	timelineTextBlock = 64 << 10

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
			"only a store that truncates its oldest posts can hold more")
	}
	pos := uint32(t.posts)
	if pos%timelineLogChunk == 0 {
		t.log = append(t.log, make([]record, 0, timelineLogChunk))
		t.bytes += timelineLogChunk * uint64(unsafe.Sizeof(record{}))
	}
	r := record{id: p.ID, seq: seq, time: p.Time, author: p.Author}
	r.block, r.off, r.size = t.appendText(p.Text)
	last := &t.log[len(t.log)-1]
	*last = append(*last, r)
	t.posts++
	t.entries += uint64(len(users))
	for _, u := range users {
		if int(u) >= len(t.users) {
			t.users = append(t.users, make([]history, int(u)+1-len(t.users))...)
			t.full = append(t.full, make([][][]byte, len(t.users)-len(t.full))...)
		}
		h := &t.users[u]
		d := pos - h.last
		h.last = pos
		h.n++
		// The varint goes whole into the current chunk or opens the next, so
		// AppendUvarint never regrows a chunk.
		c := h.cur
		if cap(c)-len(c) < (bits.Len32(d|1)+6)/7 {
			c = t.newChunk(u, c)
		}
		h.cur = binary.AppendUvarint(c, uint64(d))
	}
}

// newChunk files user u's full chunk cur and returns the next, empty one.
func (t *Timelines) newChunk(u int32, cur []byte) []byte {
	if cur != nil {
		t.full[u] = append(t.full[u], cur)
	}
	size := timelineFirstChunk << min(len(t.full[u]), timelineDoublings)
	t.bytes += uint64(size)
	return make([]byte, 0, size)
}

// appendText copies s into the text blocks and returns where it lies.
func (t *Timelines) appendText(s string) (block, off, size uint32) {
	switch {
	case s == "":
		return 0, 0, 0
	case len(s) > timelineTextBlock:
		t.blocks = append(t.blocks, append(make([]byte, 0, len(s)), s...))
		t.bytes += uint64(len(s))
		return uint32(len(t.blocks) - 1), 0, uint32(len(s))
	}
	// An exact-size block is full, so it never takes a short text.
	if len(t.blocks) == 0 || cap(t.blocks[t.open])-len(t.blocks[t.open]) < len(s) {
		t.blocks = append(t.blocks, make([]byte, 0, timelineTextBlock))
		t.open = len(t.blocks) - 1
		t.bytes += timelineTextBlock
	}
	b := &t.blocks[t.open]
	off = uint32(len(*b))
	*b = append(*b, s...)
	return uint32(t.open), off, uint32(len(s))
}

// text returns the bytes of r's text inside the store.
func (t *Timelines) text(r *record) []byte {
	if r.size == 0 {
		return nil
	}
	return t.blocks[r.block][r.off : r.off+r.size]
}

func (t *Timelines) at(pos uint32) *record {
	return &t.log[pos>>timelineLogShift][pos&(timelineLogChunk-1)]
}

// timelinePost is one post of a timeline read and the sequence number its
// owner delivered it at.
type timelinePost struct {
	seq  uint64
	post core.Post
}

// appendTail appends the newest n posts of user u's history to dst, oldest
// first, and returns the user's history length; a user that has received
// nothing (or does not exist) has length 0. Positions are decoded from the
// oldest, which reads only bytes; records and texts are copied out for the
// newest n alone, and their texts share one allocation.
func (t *Timelines) appendTail(dst []timelinePost, u int32, n int) ([]timelinePost, int) {
	if u < 0 || int(u) >= len(t.users) {
		return dst, 0
	}
	h := &t.users[u]
	total := int(h.n)
	keep := min(max(n, 0), total)
	var (
		pos     uint32
		i       int
		skip    = total - keep
		tail    = make([]*record, 0, keep)
		textLen int
	)
	decode := func(c []byte) {
		for len(c) > 0 {
			d, k := binary.Uvarint(c)
			c = c[k:]
			pos += uint32(d)
			if i >= skip {
				r := t.at(pos)
				tail = append(tail, r)
				textLen += len(t.text(r))
			}
			i++
		}
	}
	for _, c := range t.full[u] {
		decode(c)
	}
	decode(h.cur)

	var texts strings.Builder
	texts.Grow(textLen)
	for _, r := range tail {
		_, _ = texts.Write(t.text(r)) // a strings.Builder write never fails
	}
	all := texts.String()
	for _, r := range tail {
		text := all[:len(t.text(r))]
		all = all[len(text):]
		dst = append(dst, timelinePost{
			seq:  r.seq,
			post: core.Post{ID: r.id, Author: r.author, Time: r.time, Text: text},
		})
	}
	return dst, total
}

// Size reports the retained state: posts held in the log, per-user
// positions into it (one post delivered to k users counts k), and the bytes
// of the log chunks, text blocks and position chunks, counted by capacity.
func (t *Timelines) Size() (posts, entries, bytes uint64) { return t.posts, t.entries, t.bytes }

// Reset drops every history, the log and the texts.
func (t *Timelines) Reset() { *t = Timelines{} }
