package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"firehose/internal/core"
)

// This file is the ingest codec: a decoder specialised to the two request
// schemas and an encoder for the two response shapes, both working in one
// pooled buffer per request.
//
// The decoder is a fast path, not a second JSON implementation. It accepts
// only canonical bodies — those for which it can produce, without consulting
// encoding/json, exactly the value encoding/json would — and reports
// everything else as "not canonical", in which case the same bytes go through
// json.Decoder as before. encoding/json therefore stays the single authority
// on what is an error and how it reads: every 4xx envelope is produced by the
// fallback. Not canonical are: unknown or duplicate keys, keys that differ in
// case or use escapes (encoding/json matches them case-insensitively), null,
// numbers with a fraction, exponent, leading zero, "-0" or out of the field's
// range, control bytes or invalid UTF-8 in a string (encoding/json substitutes
// U+FFFD), unknown escapes, lone or mismatched surrogates, and anything but
// whitespace after the value (json.Decoder ignores it). FuzzDecodeIngest and
// FuzzDecodeBatch pin both directions against encoding/json.

// codecBuf is the per-request scratch: the request body, later reused for
// the response, and the unescape scratch for strings with escapes.
type codecBuf struct {
	b       []byte
	scratch []byte
}

var codecBufs = sync.Pool{New: func() any { return &codecBuf{b: make([]byte, 0, 4096)} }}

// maxPooledBuf bounds what a buffer may keep between requests, so one huge
// batch does not pin its size forever.
const maxPooledBuf = 1 << 20

func getCodecBuf() *codecBuf { return codecBufs.Get().(*codecBuf) }

func putCodecBuf(cb *codecBuf) {
	if cap(cb.b) <= maxPooledBuf && cap(cb.scratch) <= maxPooledBuf {
		codecBufs.Put(cb)
	}
}

// readBody reads r to EOF into cb.b.
func (cb *codecBuf) readBody(r io.Reader) error {
	b := cb.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			cb.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// failingReader replays a body read error to the fallback decoder.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// decodeIngestBody reads and decodes a POST /v1/ingest body.
func (cb *codecBuf) decodeIngestBody(body io.Reader) (IngestRequest, error) {
	rerr := cb.readBody(body)
	if rerr == nil {
		if req, ok := cb.decodeIngest(cb.b); ok {
			return req, nil
		}
	}
	var req IngestRequest
	return req, cb.decodeFallback(rerr, &req)
}

// decodeBatchBody reads and decodes a POST /v1/ingest/batch body into one slab
// of posts with Author, Time and Text set.
func (cb *codecBuf) decodeBatchBody(body io.Reader) ([]core.Post, error) {
	rerr := cb.readBody(body)
	if rerr == nil {
		if posts, ok := cb.decodeBatch(cb.b); ok {
			return posts, nil
		}
	}
	var req BatchIngestRequest
	if err := cb.decodeFallback(rerr, &req); err != nil {
		return nil, err
	}
	posts := make([]core.Post, len(req.Posts))
	for i, p := range req.Posts {
		posts[i] = core.Post{Author: p.Author, Time: p.TimeMillis, Text: p.Text}
	}
	return posts, nil
}

// decodeFallback hands the bytes read so far (and the read error, if the body
// failed mid-way) to encoding/json, exactly as a json.Decoder on the body
// itself would have seen them.
func (cb *codecBuf) decodeFallback(rerr error, v any) error {
	var src io.Reader = bytes.NewReader(cb.b)
	if rerr != nil {
		src = io.MultiReader(src, failingReader{rerr})
	}
	return json.NewDecoder(src).Decode(v)
}

// decodeIngest is the canonical-body fast path for IngestRequest.
func (cb *codecBuf) decodeIngest(data []byte) (IngestRequest, bool) {
	p := parser{b: data, scratch: cb.scratch}
	var post core.Post
	ok := p.post(&post) && p.end()
	cb.scratch = p.scratch
	return IngestRequest{Author: post.Author, Text: post.Text, TimeMillis: post.Time}, ok
}

// decodeBatch is the canonical-body fast path for BatchIngestRequest.
func (cb *codecBuf) decodeBatch(data []byte) ([]core.Post, bool) {
	p := parser{b: data, scratch: cb.scratch}
	posts, ok := p.batch()
	cb.scratch = p.scratch
	return posts, ok && p.end()
}

// parser walks one request body. Every method reports false for "not
// canonical"; the position is then meaningless and the caller falls back.
type parser struct {
	b       []byte
	i       int
	scratch []byte
}

func (p *parser) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// token consumes optional whitespace and the single byte c.
func (p *parser) token(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key consumes the exact quoted key.
func (p *parser) key(quoted string) bool {
	if len(p.b)-p.i >= len(quoted) && string(p.b[p.i:p.i+len(quoted)]) == quoted {
		p.i += len(quoted)
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (p *parser) end() bool {
	p.skipSpace()
	return p.i == len(p.b)
}

// batch parses {"posts":[post,...]}; {} decodes to no posts.
func (p *parser) batch() ([]core.Post, bool) {
	if !p.token('{') {
		return nil, false
	}
	if p.token('}') {
		return nil, true
	}
	p.skipSpace()
	if !p.key(`"posts"`) || !p.token(':') || !p.token('[') {
		return nil, false
	}
	// Capacity hint: one post per '{' after the outer one, but never more
	// than a body of this size could hold — a '{' inside a text only costs
	// slack, and a body of nothing but '{' cannot force a large slab.
	posts := make([]core.Post, 0, min(bytes.Count(p.b, []byte{'{'})-1, len(p.b)/32+1))
	if !p.token(']') {
		for {
			var post core.Post
			if !p.post(&post) {
				return nil, false
			}
			posts = append(posts, post)
			if p.token(',') {
				continue
			}
			if !p.token(']') {
				return nil, false
			}
			break
		}
	}
	return posts, p.token('}')
}

// post parses one {"author":…,"text":…,"timeMillis":…} object: any subset of
// the three keys, each at most once, in any order.
func (p *parser) post(dst *core.Post) bool {
	if !p.token('{') {
		return false
	}
	if p.token('}') {
		return true
	}
	const (
		fAuthor = 1 << iota
		fText
		fTime
	)
	seen := 0
	for {
		p.skipSpace()
		field := 0
		switch {
		case p.key(`"author"`):
			field = fAuthor
		case p.key(`"text"`):
			field = fText
		case p.key(`"timeMillis"`):
			field = fTime
		}
		if field == 0 || seen&field != 0 || !p.token(':') {
			return false
		}
		seen |= field
		ok := false
		switch field {
		case fAuthor:
			var v int64
			v, ok = p.integer(32)
			dst.Author = int32(v)
		case fText:
			dst.Text, ok = p.str()
		case fTime:
			dst.Time, ok = p.integer(64)
		}
		if !ok {
			return false
		}
		if p.token(',') {
			continue
		}
		return p.token('}')
	}
}

// integer parses a JSON integer that fits a signed integer of the given
// width. A following fraction or exponent is left for the caller, which
// expects ',' or '}' next and so rejects it.
func (p *parser) integer(bitSize uint) (int64, bool) {
	p.skipSpace()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var u uint64
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		u = u*10 + uint64(p.b[p.i]-'0')
		p.i++
	}
	// 19 digits cannot overflow uint64; int64 has at most 19.
	digits := p.i - start
	if digits == 0 || digits > 19 || (p.b[start] == '0' && (digits > 1 || neg)) {
		return 0, false
	}
	limit := uint64(1) << (bitSize - 1)
	if neg {
		return -int64(u), u <= limit
	}
	return int64(u), u < limit
}

// str parses a JSON string into a fresh Go string.
func (p *parser) str() (string, bool) {
	if !p.token('"') {
		return "", false
	}
	start := p.i
	ascii := true
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			if !ascii && !utf8.Valid(s) {
				return "", false
			}
			return string(s), true
		case c == '\\':
			return p.escapedStr(start)
		case c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
		p.i++
	}
	return "", false
}

// escapedStr finishes a string whose first escape is at p.i, unescaping into
// the scratch buffer.
func (p *parser) escapedStr(start int) (string, bool) {
	out := append(p.scratch[:0], p.b[start:p.i]...)
	for p.i < len(p.b) {
		c := p.b[p.i]
		p.i++
		switch {
		case c == '"':
			p.scratch = out // keep the grown buffer for the next string
			if !utf8.Valid(out) {
				return "", false
			}
			return string(out), true
		case c < ' ':
			return "", false
		case c != '\\':
			out = append(out, c)
			continue
		}
		if p.i == len(p.b) {
			return "", false
		}
		c = p.b[p.i]
		p.i++
		switch c {
		case '"', '\\', '/':
			out = append(out, c)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := p.hex4()
			if !ok {
				return "", false
			}
			if utf16.IsSurrogate(r) {
				// Only a well-formed pair is canonical; encoding/json turns
				// anything else into U+FFFD.
				if !p.key(`\u`) {
					return "", false
				}
				low, ok := p.hex4()
				if r = utf16.DecodeRune(r, low); !ok || r == utf8.RuneError {
					return "", false
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return "", false
		}
	}
	return "", false
}

// hex4 parses the four hex digits of a \u escape.
func (p *parser) hex4() (rune, bool) {
	if len(p.b)-p.i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range p.b[p.i : p.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	p.i += 4
	return r, true
}

// appendIngestResponse appends the bytes json.Encoder emits for an
// IngestResponse (without the trailing newline): {"id":N,"delivered":[…]},
// with [] for no delivery.
func appendIngestResponse(b []byte, id uint64, users []int32) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, `,"delivered":[`...)
	for i, u := range users {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(u), 10)
	}
	return append(b, "]}"...)
}
