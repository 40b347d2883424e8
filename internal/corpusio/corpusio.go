// Package corpusio defines the on-disk formats for the library's offline
// artifacts: post corpora, followee vectors, author similarity graphs and
// clique covers. The paper's pipeline separates an offline preparation step
// (crawl, pairwise author similarity, clique partition — recomputed, e.g.,
// weekly) from the streaming step; these formats are the hand-off between
// the two.
//
// All formats are line-oriented JSON (JSONL): a single header line
// identifying the kind and version, then one record per line. JSONL keeps
// the files streamable, diffable and trivially concatenable, and needs no
// dependency beyond encoding/json.
package corpusio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"firehose/internal/authorsim"
	"firehose/internal/core"
)

// maxLineBytes bounds a single JSONL line (a post text is ≤ a few hundred
// bytes; headers and followee lists a few KiB — 1 MiB is comfortably safe).
const maxLineBytes = 1 << 20

type header struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	// Count is the number of records that follow. ReadPosts and
	// ReadFollowees refuse a file whose record count differs from a
	// positive Count (a file cut at a line boundary) and presize from it,
	// capped by maxPresize; zero or absent means unknown.
	Count int `json:"count"`
	// NumAuthors and LambdaA apply to graph and cover files.
	NumAuthors int     `json:"numAuthors,omitempty"`
	LambdaA    float64 `json:"lambdaA,omitempty"`
}

const (
	kindPosts     = "firehose/posts"
	kindFollowees = "firehose/followees"
	kindGraph     = "firehose/authorgraph"
	kindCover     = "firehose/cliquecover"
	version       = 1
)

func writeHeader(w *bufio.Writer, h header) error {
	h.Version = version
	return writeLine(w, h)
}

func writeLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

func readHeader(sc *bufio.Scanner, wantKind string) (header, error) {
	var h header
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return h, err
		}
		return h, fmt.Errorf("corpusio: empty input, expected %s header", wantKind)
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return h, fmt.Errorf("corpusio: bad header: %w", err)
	}
	if h.Kind != wantKind {
		return h, fmt.Errorf("corpusio: kind %q, expected %q", h.Kind, wantKind)
	}
	if h.Version != version {
		return h, fmt.Errorf("corpusio: unsupported version %d", h.Version)
	}
	return h, nil
}

// maxPresize caps the records a reader allocates room for up front from a
// header's count, so a corrupt count cannot demand unbounded memory.
const maxPresize = 1 << 20

// checkCount refuses n records read under a header that declares another
// positive count.
func checkCount(h header, n int) error {
	if h.Count > 0 && n != h.Count {
		return fmt.Errorf("corpusio: %s header declares %d records, read %d", h.Kind, h.Count, n)
	}
	return nil
}

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	return sc
}

// ---------------------------------------------------------------------------
// Posts

// PostRecord is the JSONL form of one post. Fingerprints are not stored:
// they are a pure function of the text and the reader recomputes them, so a
// corpus stays valid if the fingerprinting pipeline evolves.
type PostRecord struct {
	ID         uint64 `json:"id"`
	Author     int32  `json:"author"`
	TimeMillis int64  `json:"timeMillis"`
	Text       string `json:"text"`
}

// WritePosts streams a corpus.
func WritePosts(w io.Writer, posts []*core.Post) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, header{Kind: kindPosts, Count: len(posts)}); err != nil {
		return err
	}
	for _, p := range posts {
		rec := PostRecord{ID: p.ID, Author: p.Author, TimeMillis: p.Time, Text: p.Text}
		if err := writeLine(bw, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPosts loads a corpus, recomputing fingerprints and validating stream
// order (non-decreasing timestamps) and, against a positive header count,
// the number of posts.
func ReadPosts(r io.Reader) ([]*core.Post, error) {
	sc := newScanner(r)
	h, err := readHeader(sc, kindPosts)
	if err != nil {
		return nil, err
	}
	posts := make([]*core.Post, 0, min(max(h.Count, 0), maxPresize))
	line := 1
	for sc.Scan() {
		line++
		var rec PostRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("corpusio: line %d: %w", line, err)
		}
		if n := len(posts); n > 0 && rec.TimeMillis < posts[n-1].Time {
			return nil, fmt.Errorf("corpusio: line %d: post out of time order", line)
		}
		posts = append(posts, core.NewPost(rec.ID, rec.Author, rec.TimeMillis, rec.Text))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := checkCount(h, len(posts)); err != nil {
		return nil, err
	}
	return posts, nil
}

// ---------------------------------------------------------------------------
// Followee vectors

type followeeRecord struct {
	Author    int32   `json:"author"`
	Followees []int32 `json:"followees"`
}

// WriteFollowees streams per-author followee vectors; the record order is
// the author id order.
func WriteFollowees(w io.Writer, followees [][]int32) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, header{Kind: kindFollowees, Count: len(followees)}); err != nil {
		return err
	}
	for a, f := range followees {
		if err := writeLine(bw, followeeRecord{Author: int32(a), Followees: f}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFollowees loads followee vectors. Records must appear in author-id
// order 0..n-1 with no gaps, and there must be as many as a positive header
// count declares.
//
// A line in the exact shape WriteFollowees writes is decoded by
// decodeFolloweeLine; every other line — other key order, whitespace,
// escapes, out-of-range numbers, malformed JSON — goes through
// json.Unmarshal, so encoding/json stays the authority on errors and edge
// cases. FuzzReadFollowees pins the result to a pure encoding/json reader.
func ReadFollowees(r io.Reader) ([][]int32, error) {
	sc := newScanner(r)
	h, err := readHeader(sc, kindFollowees)
	if err != nil {
		return nil, err
	}
	var out [][]int32
	if h.Count > 0 {
		out = make([][]int32, 0, min(h.Count, maxPresize))
	}
	line := 1
	for sc.Scan() {
		line++
		rec, ok := decodeFolloweeLine(sc.Bytes())
		if !ok {
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return nil, fmt.Errorf("corpusio: line %d: %w", line, err)
			}
		}
		if int(rec.Author) != len(out) {
			return nil, fmt.Errorf("corpusio: line %d: author %d out of order (expected %d)",
				line, rec.Author, len(out))
		}
		out = append(out, rec.Followees)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := checkCount(h, len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeFolloweeLine decodes a line byte-for-byte as json.Marshal writes a
// followeeRecord — {"author":N,"followees":[N,…]}, with [] or null for no
// followees — and reports false, with a zero record, for anything else.
// Numbers must be canonical JSON integers in int32 range.
func decodeFolloweeLine(b []byte) (followeeRecord, bool) {
	const head, mid = `{"author":`, `,"followees":`
	if !bytes.HasPrefix(b, []byte(head)) {
		return followeeRecord{}, false
	}
	author, i, ok := decodeInt32(b, len(head))
	if !ok || !bytes.HasPrefix(b[i:], []byte(mid)) {
		return followeeRecord{}, false
	}
	b = b[i+len(mid):]
	if string(b) == "null}" {
		return followeeRecord{Author: author}, true
	}
	if !bytes.HasPrefix(b, []byte("[")) {
		return followeeRecord{}, false
	}
	rec := followeeRecord{Author: author, Followees: make([]int32, 0, bytes.Count(b, []byte(","))+1)}
	i = 1
	for i < len(b) && b[i] != ']' {
		if len(rec.Followees) > 0 {
			if b[i] != ',' {
				return followeeRecord{}, false
			}
			i++
		}
		var t int32
		if t, i, ok = decodeInt32(b, i); !ok {
			return followeeRecord{}, false
		}
		rec.Followees = append(rec.Followees, t)
	}
	if string(b[i:]) != "]}" {
		return followeeRecord{}, false
	}
	return rec, true
}

// decodeInt32 parses the canonical JSON integer at b[i:] — no leading zero,
// no "-0", within int32 — and returns it with the index just past its
// digits. A fraction or exponent there is left to the caller, which expects
// a delimiter and so rejects the line.
func decodeInt32(b []byte, i int) (int32, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(b) && '0' <= b[i] && b[i] <= '9' && i-start < 11 {
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || (b[start] == '0' && (digits > 1 || neg)) {
		return 0, 0, false
	}
	if neg {
		return int32(-int64(u)), i, u <= 1<<31
	}
	return int32(u), i, u < 1<<31
}

// ---------------------------------------------------------------------------
// Author similarity graph

type edgeRecord struct {
	A int32 `json:"a"`
	B int32 `json:"b"`
}

// WriteGraph persists a precomputed author similarity graph as its edge
// list plus λa.
func WriteGraph(w io.Writer, g *authorsim.Graph) error {
	bw := bufio.NewWriter(w)
	h := header{Kind: kindGraph, Count: g.NumEdges(), NumAuthors: g.NumAuthors(), LambdaA: g.LambdaA()}
	if err := writeHeader(bw, h); err != nil {
		return err
	}
	for a := int32(0); a < int32(g.NumAuthors()); a++ {
		for _, b := range g.Neighbors(a) {
			if b > a {
				if err := writeLine(bw, edgeRecord{A: a, B: b}); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadGraph loads a persisted author similarity graph.
func ReadGraph(r io.Reader) (*authorsim.Graph, error) {
	sc := newScanner(r)
	h, err := readHeader(sc, kindGraph)
	if err != nil {
		return nil, err
	}
	if h.NumAuthors <= 0 {
		return nil, fmt.Errorf("corpusio: graph header missing numAuthors")
	}
	var pairs []authorsim.SimPair
	line := 1
	for sc.Scan() {
		line++
		var rec edgeRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("corpusio: line %d: %w", line, err)
		}
		if rec.A == rec.B || rec.A < 0 || rec.B < 0 ||
			int(rec.A) >= h.NumAuthors || int(rec.B) >= h.NumAuthors {
			return nil, fmt.Errorf("corpusio: line %d: bad edge (%d,%d)", line, rec.A, rec.B)
		}
		pairs = append(pairs, authorsim.SimPair{A: rec.A, B: rec.B})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return authorsim.NewGraph(h.NumAuthors, pairs, h.LambdaA), nil
}

// ---------------------------------------------------------------------------
// Clique cover

type cliqueRecord struct {
	Members []int32 `json:"members"`
}

// WriteCover persists a clique cover as one record per clique.
func WriteCover(w io.Writer, cc *authorsim.CliqueCover, lambdaA float64) error {
	bw := bufio.NewWriter(w)
	h := header{Kind: kindCover, Count: cc.NumCliques(), LambdaA: lambdaA}
	if err := writeHeader(bw, h); err != nil {
		return err
	}
	for _, clique := range cc.Cliques {
		if err := writeLine(bw, cliqueRecord{Members: clique}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCover loads a persisted clique cover and rebuilds the Author2Cliques
// index. It optionally validates against a graph (pass nil to skip): every
// clique must be complete and every induced edge covered is NOT checked here
// (covers may be partial views); use CliqueCover.CoversAllEdges for that.
func ReadCover(r io.Reader, validateAgainst *authorsim.Graph) (*authorsim.CliqueCover, float64, error) {
	sc := newScanner(r)
	h, err := readHeader(sc, kindCover)
	if err != nil {
		return nil, 0, err
	}
	var cliques [][]int32
	line := 1
	for sc.Scan() {
		line++
		var rec cliqueRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, fmt.Errorf("corpusio: line %d: %w", line, err)
		}
		if len(rec.Members) == 0 {
			return nil, 0, fmt.Errorf("corpusio: line %d: empty clique", line)
		}
		cliques = append(cliques, rec.Members)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	cc := authorsim.CoverFromCliques(cliques)
	if validateAgainst != nil && !cc.IsValid(validateAgainst) {
		return nil, 0, fmt.Errorf("corpusio: cover contains a non-clique of the graph")
	}
	return cc, h.LambdaA, nil
}
