package stream

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync/atomic"
	"unsafe"

	"firehose/internal/core"
)

// Timelines is the delivered-post history of every user: the view the
// timeline endpoints read. Every worker of the engine owns one for the posts
// it decides (the inline engine's one worker, all of them), and it is
// deliberately not checkpointed (a rebuildable view, see checkpoint.go), so
// owners Reset it on restore.
//
// Deliver copies what a read serves — id, author, time and text — into an
// arena the store owns, so nothing the caller allocated stays reachable once
// it returns. The arena is pages of arenaPage bytes mapped outside the Go
// heap (anonymous private mappings on unix, plain heap pages elsewhere),
// carved front to back in 8-byte steps and never freed one by one. The
// garbage collector neither scans those pages nor counts them towards its
// heap goal, so the store costs its bytes and not a heap's worth of headroom
// on top. Everything in the arena is pointer-free:
//
//   - A delivered post is stored once, as a fixed-size record in an
//     append-only log of timelineLogChunk-record chunks. The record also
//     holds the owner's sequence number for the post (a multi-worker engine
//     merges its workers' histories by it) and where its text lies. The
//     fingerprint is not kept: no read serves it.
//   - The text is copied next to whatever the arena handed out last; a text
//     longer than a page gets a mapping of its own.
//   - A user's history is its log positions, which strictly increase, coded
//     as uvarints in a chain of timelineChunk-byte chunks, each led by the
//     arena reference of the next. Each value is the distance from the
//     previous position (from −1 for the first), so no coded byte is zero
//     and the zeroed tail a fresh mapping leaves after a chunk's last uvarint
//     ends the chunk. A uvarint never straddles two chunks. User ids are
//     subscription indexes, so the per-user index is a dense slice on the Go
//     heap, grown on demand.
//
// Safety: no slice or pointer into the arena leaves the owner's lock. Reads
// copy records and texts out (appendTail), so a Reset, which unmaps every
// page, never leaves a reader holding freed memory. A Timelines must not be
// copied, since two copies would share one arena (go vet reports a copy). A
// store dropped without Reset is unmapped by a finalizer on its arena, a
// separate object that holds nothing of the store, so the finalizer never
// keeps the store reachable. A failed mapping panics, as a failed heap
// allocation would.
//
// History is unbounded. Deliver panics rather than wrap once the log holds
// 2^32 posts, the range of a position; memory runs out long before that.
//
// Timelines does no locking; the owning engine's mutex guards it.
type Timelines struct {
	_       noCopy
	mem     *arena    // nil until the first delivery
	log     []aref    // chunks of timelineLogChunk records; all but the last full
	users   []history // dense by user id
	posts   uint64    // log length
	entries uint64    // positions across all users
}

// noCopy makes go vet's copylocks check report a copied Timelines.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// aref is where an allocation lies in the arena: off bytes into page page.
type aref struct{ page, off uint32 }

// record is one delivered post: what a timeline read serves, the sequence
// number its owner delivered it at, and where its size-byte text lies.
type record struct {
	id     uint64
	seq    uint64
	time   int64
	author int32
	text   aref
	size   uint32
}

// history is one user's position chain: its oldest and newest chunk, the
// bytes used of the newest chunk's body, the newest position and the count.
type history struct {
	first, tail aref
	used        uint32
	last        uint32
	n           uint32
}

const (
	arenaPage = 1 << 20

	timelineChunk = 128
	chunkHeader   = uint32(unsafe.Sizeof(aref{}))
	chunkBody     = timelineChunk - chunkHeader

	recordSize       = int(unsafe.Sizeof(record{}))
	timelineLogShift = 10
	timelineLogChunk = 1 << timelineLogShift
	// timelineMaxPosts is the number of posts uint32 positions can address.
	timelineMaxPosts = 1 << 32
)

// Deliver records p, decided at sequence number seq, in the timeline of every
// listed user. Sequence numbers must increase from call to call, and a user
// is listed once, as a solver delivers a post to a user once; a post
// delivered to no one is not stored.
func (t *Timelines) Deliver(p *core.Post, seq uint64, users []int32) {
	if len(users) == 0 {
		return
	}
	if t.posts == timelineMaxPosts {
		panic("stream: the timeline log holds 2^32 posts, all a uint32 position can address; " +
			"only a store that truncates its oldest posts can hold more")
	}
	if t.mem == nil {
		t.mem = newArena()
	}
	pos := uint32(t.posts)
	if pos%timelineLogChunk == 0 {
		t.log = append(t.log, t.mem.alloc(timelineLogChunk*recordSize))
	}
	r := t.at(pos)
	*r = record{id: p.ID, seq: seq, time: p.Time, author: p.Author,
		text: t.mem.alloc(len(p.Text)), size: uint32(len(p.Text))}
	copy(t.mem.bytes(r.text, r.size), p.Text)
	t.posts++
	t.entries += uint64(len(users))
	for _, u := range users {
		if int(u) >= len(t.users) {
			t.users = append(t.users, make([]history, int(u)+1-len(t.users))...)
		}
		h := &t.users[u]
		if h.n > 0 && h.last == pos {
			panic(fmt.Sprintf("stream: user %d is listed twice for post %d", u, p.ID))
		}
		t.appendPosition(h, pos)
	}
}

// appendPosition adds pos to h's chain: into the newest chunk if the uvarint
// fits there whole, else into a new chunk linked from it.
func (t *Timelines) appendPosition(h *history, pos uint32) {
	v := uint64(pos) - uint64(h.last)
	if h.n == 0 {
		v = uint64(pos) + 1
		h.first = t.mem.alloc(timelineChunk)
		h.tail = h.first
	}
	k := uint32(bits.Len64(v)+6) / 7
	if h.used+k > chunkBody {
		next := t.mem.alloc(timelineChunk)
		*(*aref)(t.mem.ptr(h.tail)) = next
		h.tail, h.used = next, 0
	}
	binary.PutUvarint(t.mem.bytes(aref{h.tail.page, h.tail.off + chunkHeader + h.used}, k), v)
	h.used += k
	h.last = pos
	h.n++
}

func (t *Timelines) at(pos uint32) *record {
	c := t.log[pos>>timelineLogShift]
	c.off += uint32(int(pos&(timelineLogChunk-1)) * recordSize)
	return (*record)(t.mem.ptr(c))
}

// text returns the bytes of r's text inside the store.
func (t *Timelines) text(r *record) []byte { return t.mem.bytes(r.text, r.size) }

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
		next    uint64 // the newest decoded position + 1
		i       int
		skip    = total - keep
		tail    = make([]*record, 0, keep)
		textLen int
	)
	for c := h.first; i < total; c = *(*aref)(t.mem.ptr(c)) {
		body := t.mem.bytes(aref{c.page, c.off + chunkHeader}, chunkBody)
		for len(body) > 0 && body[0] != 0 {
			v, k := binary.Uvarint(body)
			body = body[k:]
			next += v
			if i >= skip {
				r := t.at(uint32(next - 1))
				tail = append(tail, r)
				textLen += int(r.size)
			}
			i++
		}
	}

	var texts strings.Builder
	texts.Grow(textLen)
	for _, r := range tail {
		_, _ = texts.Write(t.text(r)) // a strings.Builder write never fails
	}
	all := texts.String()
	for _, r := range tail {
		text := all[:r.size]
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
// of the store's mapped pages.
func (t *Timelines) Size() (posts, entries, bytes uint64) {
	if t.mem != nil {
		bytes = t.mem.mapped
	}
	return t.posts, t.entries, bytes
}

// Reset drops every history, the log and the texts, and unmaps their pages.
func (t *Timelines) Reset() {
	if t.mem != nil {
		t.mem.release()
	}
	*t = Timelines{}
}

// arena is a Timelines' memory: pages from mapPage, carved front to back.
// It is its own object, pointed to by its store alone, so that a finalizer
// on it unmaps the pages of a store dropped without Reset.
type arena struct {
	pages  [][]byte
	open   uint32 // the page allocations are carved from
	free   uint32 // bytes left on it; 0 before the first page
	mapped uint64 // bytes of every page
}

// mappedBytes counts the bytes of every arena page live in the process.
var mappedBytes atomic.Int64

func newArena() *arena {
	a := new(arena)
	runtime.SetFinalizer(a, (*arena).release)
	return a
}

// alloc returns n bytes of zeroed memory, 8-byte aligned. An allocation
// longer than a page gets a page of its own and leaves the open page open.
func (a *arena) alloc(n int) aref {
	size := uint32(n+7) &^ 7
	if n > arenaPage {
		a.mapPage(int(size))
		return aref{page: uint32(len(a.pages) - 1)}
	}
	if size > a.free {
		a.mapPage(arenaPage)
		a.open, a.free = uint32(len(a.pages)-1), arenaPage
	}
	r := aref{a.open, arenaPage - a.free}
	a.free -= size
	return r
}

func (a *arena) mapPage(size int) {
	a.pages = append(a.pages, mapPage(size))
	a.mapped += uint64(size)
	mappedBytes.Add(int64(size))
}

func (a *arena) ptr(r aref) unsafe.Pointer { return unsafe.Pointer(&a.pages[r.page][r.off]) }

// bytes returns the n bytes at r.
func (a *arena) bytes(r aref, n uint32) []byte {
	return a.pages[r.page][r.off : r.off+n : r.off+n]
}

// release unmaps every page. It is idempotent, so the finalizer of an arena
// its store already reset does nothing.
func (a *arena) release() {
	for _, p := range a.pages {
		unmapPage(p)
	}
	mappedBytes.Add(-int64(a.mapped))
	*a = arena{}
}
