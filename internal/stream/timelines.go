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
// carved front to back and never freed one by one. The garbage collector
// neither scans those pages nor counts them towards its heap goal, so the
// store costs its bytes and not a heap's worth of headroom on top.
// Everything in the arena is pointer-free:
//
//   - A delivered post is stored once, as one byte-aligned entry of an
//     append-only log: a header of uvarints directly followed by the text.
//     The header holds the id, the owner's sequence number for the post (a
//     multi-worker engine merges its workers' histories by it) and the time,
//     each as its difference from the first entry of the post's
//     timelineLogChunk-entry log chunk (id and time zigzag-coded, as they
//     may go backwards), then the author and the text length. An entry
//     longer than a page gets a mapping of its own. The fingerprint is not
//     kept: no read serves it.
//   - A log chunk is a descriptor on the Go heap holding the chunk's first
//     id, sequence number and time, and an arena array of the chunk's
//     timelineLogChunk entry locations, 4 bytes each (see packLoc).
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
// decode entries and copy texts out (appendTail), so a Reset, which unmaps
// every page, never leaves a reader holding freed memory. A Timelines must
// not be copied, since two copies would share one arena (go vet reports a
// copy). A store dropped without Reset is unmapped by a finalizer on its
// arena, a separate object that holds nothing of the store, so the finalizer
// never keeps the store reachable. A failed mapping panics, as a failed heap
// allocation would.
//
// History is unbounded. Deliver panics rather than wrap once the log holds
// 2^32 posts, the range of a position, or once a log chunk's entries spread
// over more pages than a location can reach; memory runs out long before
// either.
//
// Timelines does no locking; the owning engine's mutex guards it.
type Timelines struct {
	_       noCopy
	mem     *arena     // nil until the first delivery
	log     []logChunk // all but the last full
	users   []history  // dense by user id
	posts   uint64     // log length
	entries uint64     // positions across all users
}

// noCopy makes go vet's copylocks check report a copied Timelines.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// aref is where an allocation lies in the arena: off bytes into page page.
type aref struct{ page, off uint32 }

// logChunk describes timelineLogChunk consecutive log entries: the id,
// sequence number and time their headers are coded against (the chunk's
// first entry's), and its array of entry locations, whose page is the base
// of every location in it.
type logChunk struct {
	id   uint64
	seq  uint64
	time int64
	locs aref
}

// entry is a decoded log entry: what a timeline read serves, the sequence
// number its owner delivered it at, and where its size-byte text lies.
type entry struct {
	id     uint64
	seq    uint64
	time   int64
	author int32
	size   uint32
	text   aref
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
	arenaPageShift = 20
	arenaPage      = 1 << arenaPageShift

	timelineChunk = 128
	chunkHeader   = uint32(unsafe.Sizeof(aref{}))
	chunkBody     = timelineChunk - chunkHeader

	timelineLogShift = 10
	timelineLogChunk = 1 << timelineLogShift
	// timelineMaxPosts is the number of posts uint32 positions can address.
	timelineMaxPosts = 1 << 32

	// A location is the entry's page, less its chunk's base page, above the
	// entry's offset into that page.
	locSize      = 4
	locPageLimit = 1 << (32 - arenaPageShift)

	// maxHeader bounds an entry header: four 64-bit uvarints and a 32-bit one.
	maxHeader = 4*binary.MaxVarintLen64 + binary.MaxVarintLen32
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
		t.log = append(t.log, logChunk{id: p.ID, seq: seq, time: p.Time,
			locs: t.mem.alloc(timelineLogChunk*locSize, locSize)})
	}
	c := &t.log[len(t.log)-1]
	var hdr [maxHeader]byte
	k := binary.PutVarint(hdr[:], int64(p.ID-c.id))
	k += binary.PutUvarint(hdr[k:], seq-c.seq)
	k += binary.PutVarint(hdr[k:], p.Time-c.time)
	k += binary.PutUvarint(hdr[k:], uint64(uint32(p.Author)))
	k += binary.PutUvarint(hdr[k:], uint64(len(p.Text)))
	size := k + len(p.Text)
	at := t.mem.alloc(size, 1)
	b := t.mem.bytes(at, uint32(size))
	copy(b[copy(b, hdr[:k]):], p.Text)
	binary.LittleEndian.PutUint32(t.loc(c, pos), packLoc(c.locs.page, at))
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

// packLoc codes at, an entry of the log chunk whose location array lies on
// page base, as a location. Later allocations never lie on an earlier page,
// so the page difference is never negative; one that does not fit panics
// rather than wrap onto another entry.
func packLoc(base uint32, at aref) uint32 {
	d := at.page - base
	if d >= locPageLimit {
		panic(fmt.Sprintf("stream: a timeline log chunk's entries span more than %d arena pages, "+
			"all a 4-byte entry location can address", locPageLimit))
	}
	return d<<arenaPageShift | at.off
}

// loc returns the 4 bytes of position pos's location in its chunk c.
func (t *Timelines) loc(c *logChunk, pos uint32) []byte {
	return t.mem.bytes(aref{c.locs.page, c.locs.off + pos%timelineLogChunk*locSize}, locSize)
}

// appendPosition adds pos to h's chain: into the newest chunk if the uvarint
// fits there whole, else into a new chunk linked from it.
func (t *Timelines) appendPosition(h *history, pos uint32) {
	v := uint64(pos) - uint64(h.last)
	if h.n == 0 {
		v = uint64(pos) + 1
		h.first = t.mem.alloc(timelineChunk, 8)
		h.tail = h.first
	}
	k := uint32(bits.Len64(v)+6) / 7
	if h.used+k > chunkBody {
		next := t.mem.alloc(timelineChunk, 8)
		*(*aref)(t.mem.ptr(h.tail)) = next
		h.tail, h.used = next, 0
	}
	binary.PutUvarint(t.mem.bytes(aref{h.tail.page, h.tail.off + chunkHeader + h.used}, k), v)
	h.used += k
	h.last = pos
	h.n++
}

// at decodes the log entry at pos.
func (t *Timelines) at(pos uint32) entry {
	c := &t.log[pos>>timelineLogShift]
	loc := binary.LittleEndian.Uint32(t.loc(c, pos))
	page, off := c.locs.page+loc>>arenaPageShift, loc&(arenaPage-1)
	b := t.mem.pages[page][off:]
	id, k := binary.Varint(b)
	n := k
	seq, k := binary.Uvarint(b[n:])
	n += k
	time, k := binary.Varint(b[n:])
	n += k
	author, k := binary.Uvarint(b[n:])
	n += k
	size, k := binary.Uvarint(b[n:])
	n += k
	return entry{id: c.id + uint64(id), seq: c.seq + seq, time: c.time + time,
		author: int32(uint32(author)), size: uint32(size), text: aref{page, off + uint32(n)}}
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
// oldest, which reads only bytes; entries are decoded and their texts copied
// out for the newest n alone, and the texts share one allocation.
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
		tail    = make([]entry, 0, keep)
		textLen int
	)
	for c := h.first; i < total; c = *(*aref)(t.mem.ptr(c)) {
		body := t.mem.bytes(aref{c.page, c.off + chunkHeader}, chunkBody)
		for len(body) > 0 && body[0] != 0 {
			v, k := binary.Uvarint(body)
			body = body[k:]
			next += v
			if i >= skip {
				e := t.at(uint32(next - 1))
				tail = append(tail, e)
				textLen += int(e.size)
			}
			i++
		}
	}

	var texts strings.Builder
	texts.Grow(textLen)
	for _, e := range tail {
		_, _ = texts.Write(t.mem.bytes(e.text, e.size)) // a strings.Builder write never fails
	}
	all := texts.String()
	for _, e := range tail {
		text := all[:e.size]
		all = all[len(text):]
		dst = append(dst, timelinePost{
			seq:  e.seq,
			post: core.Post{ID: e.id, Author: e.author, Time: e.time, Text: text},
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

// Reset drops every history and the log, and unmaps their pages.
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

// alloc returns n > 0 bytes of zeroed memory at an offset that is a multiple
// of align, a power of two up to 8. An allocation longer than a page gets a
// page of its own and leaves the open page open.
func (a *arena) alloc(n int, align uint32) aref {
	if n > arenaPage {
		a.mapPage(n)
		return aref{page: uint32(len(a.pages) - 1)}
	}
	off := (arenaPage - a.free + align - 1) &^ (align - 1)
	if off+uint32(n) > arenaPage {
		a.mapPage(arenaPage)
		a.open, off = uint32(len(a.pages)-1), 0
	}
	a.free = arenaPage - off - uint32(n)
	return aref{a.open, off}
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
