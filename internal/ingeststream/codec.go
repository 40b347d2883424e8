// Package ingeststream is the framed post stream both ingest hops speak: a
// client streaming posts into a node's POST /v1/ingest/stream, and a router
// forwarding them to a shard worker's POST /v1/shard/stream. It holds the
// frame codec and both ends of a stream's lifecycle — the Upgrade handshake,
// the pipelined serve loop, the refusal reply that carries an HTTP error
// envelope, the client dial and round trip, and Close ending every live
// stream — so the two hops share one implementation.
//
// A stream is an HTTP/1.1 Upgrade answered 101 Switching Protocols on the
// server's ordinary listener. From then on the connection carries
// length-prefixed binary frames, one request frame per post and one reply
// frame per request, in order:
//
//	frame   = u32 big-endian payload length (≤ 16 MiB), payload
//	request = uvarint id, uvarint prev, varint author, varint timeMillis, text
//	reply   = 0x00, uvarint id, delivered users as varints
//	        | 0x01, uvarint HTTP status, JSON error envelope
//
// A client sends id 0 and prev 0 and reads the id the server assigned from
// the reply. A router sends the id it assigned and the watermark the worker
// must hold (internal/shard's wire.go), and checks the answered id against
// it. A refusal carries the status and envelope bytes the same refusal has
// over HTTP. Requests may be pipelined: written back to back, replies read
// in order. Bytes that are not a frame end the stream, because it cannot be
// re-synchronised past them.
package ingeststream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// The Upgrade tokens name the frame layout above: a change to it changes
// both versions.
const (
	// ClientProtocol is the Upgrade token of POST /v1/ingest/stream.
	ClientProtocol = "firehose-ingest/1"
	// ShardProtocol is the Upgrade token of the shard stream. A router and
	// its workers must run the same firehosed build.
	ShardProtocol = "firehose-shard/2"
)

const (
	// MaxFrame bounds a frame's payload: a length prefix above it is a framing
	// error, so a corrupt or hostile prefix cannot make the reader allocate
	// more than this. It is the bound of every ingest hop: the HTTP layer
	// refuses a POST /v1/ingest or /v1/ingest/batch body over it too.
	MaxFrame = 16 << 20
	// frameHeader is the size of the big-endian payload length prefix.
	frameHeader = 4
	// growStep is the first step a payload buffer grows by.
	growStep = 64 << 10
	// MaxText is the longest post text that still fits a request frame.
	MaxText = MaxFrame - 4*binary.MaxVarintLen64

	replyOK  byte = 0
	replyErr byte = 1
)

// errFrame reports bytes that are not a frame of this protocol.
var errFrame = errors.New("ingeststream: malformed stream frame")

// Request is one post as a request frame carries it.
type Request struct {
	// ID is 0 from a client; on the shard hop, the id the router assigned
	// (so a worker's ids increase but are not dense).
	ID uint64
	// Prev is 0 from a client; on the shard hop, the id watermark the worker
	// must hold for the frame to land: the last id forwarded to that shard.
	Prev uint64
	// Author is the posting author's dense id.
	Author int32
	// TimeMillis is the post timestamp (Unix milliseconds).
	TimeMillis int64
	// Text is the post content.
	Text string
}

// Reply is one decoded reply frame.
type Reply struct {
	// Status is 0 for an ingested post, the refusal's HTTP status otherwise.
	Status int
	// ID is an ingested post's id.
	ID uint64
	// Users are an ingested post's deliveries (empty, never nil).
	Users []int32
	// Envelope is a refusal's JSON error envelope.
	Envelope []byte
}

// sealFrame fills in the length prefix reserved at dst[at:] once the payload
// behind it is complete.
func sealFrame(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-frameHeader))
	return dst
}

// appendRequest appends r to dst as one request frame.
func appendRequest(dst []byte, r *Request) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, r.Prev)
	dst = binary.AppendVarint(dst, int64(r.Author))
	dst = binary.AppendVarint(dst, r.TimeMillis)
	dst = append(dst, r.Text...)
	return sealFrame(dst, at)
}

// decodeRequest parses a request frame's payload.
func decodeRequest(p []byte) (Request, error) {
	var r Request
	var n int
	if r.ID, n = binary.Uvarint(p); n <= 0 {
		return r, errFrame
	}
	p = p[n:]
	if r.Prev, n = binary.Uvarint(p); n <= 0 {
		return r, errFrame
	}
	p = p[n:]
	author, n := binary.Varint(p)
	if n <= 0 || author < math.MinInt32 || author > math.MaxInt32 {
		return r, errFrame
	}
	r.Author = int32(author)
	p = p[n:]
	if r.TimeMillis, n = binary.Varint(p); n <= 0 {
		return r, errFrame
	}
	r.Text = string(p[n:])
	return r, nil
}

// appendOKReply appends the reply frame of an ingested post: its id and the
// users whose timelines received it.
func appendOKReply(dst []byte, id uint64, users []int32) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, replyOK)
	dst = binary.AppendUvarint(dst, id)
	for _, u := range users {
		dst = binary.AppendVarint(dst, int64(u))
	}
	return sealFrame(dst, at)
}

// appendErrReply appends the reply frame of a refused post: the HTTP status
// and JSON envelope the same refusal has over HTTP.
func appendErrReply(dst []byte, status int, envelope []byte) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, replyErr)
	dst = binary.AppendUvarint(dst, uint64(status))
	dst = append(dst, envelope...)
	return sealFrame(dst, at)
}

// decodeReply parses a reply frame's payload. A refusal's envelope aliases
// the payload.
func decodeReply(p []byte) (Reply, error) {
	if len(p) == 0 {
		return Reply{}, errFrame
	}
	switch p[0] {
	case replyOK:
		id, k := binary.Uvarint(p[1:])
		if k <= 0 {
			return Reply{}, errFrame
		}
		p = p[1+k:]
		// Every varint ends in exactly one byte below 0x80, so the count is
		// known (and bounded by the payload) before anything is allocated.
		n := 0
		for _, b := range p {
			if b < 0x80 {
				n++
			}
		}
		users := make([]int32, 0, n)
		for len(p) > 0 {
			u, k := binary.Varint(p)
			if k <= 0 || u < math.MinInt32 || u > math.MaxInt32 {
				return Reply{}, errFrame
			}
			users = append(users, int32(u))
			p = p[k:]
		}
		return Reply{ID: id, Users: users}, nil
	case replyErr:
		status, k := binary.Uvarint(p[1:])
		if k <= 0 || status < 100 || status > 999 {
			return Reply{}, errFrame
		}
		return Reply{Status: int(status), Envelope: p[1+k:]}, nil
	}
	return Reply{}, errFrame
}

// readFrame reads one frame from br and returns its payload, which lives in
// *buf (grown as needed, reused by the next call).
func readFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	n, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	return readPayload(br, n, buf)
}

// readHeader reads a frame's length prefix and returns its payload length.
func readHeader(br *bufio.Reader) (int, error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return 0, fmt.Errorf("%w: %d-byte payload exceeds the %d-byte bound", errFrame, n, MaxFrame)
	}
	_, _ = br.Discard(frameHeader) // cannot fail: Peek buffered them
	return n, nil
}

// readPayload reads an n-byte payload into *buf. The buffer grows only as
// the bytes arrive, doubling from growStep, so a length prefix whose payload
// never comes costs at most twice the bytes sent, not the length declared.
func readPayload(br *bufio.Reader, n int, buf *[]byte) ([]byte, error) {
	p := (*buf)[:0]
	for len(p) < n {
		k := min(n-len(p), max(len(p), growStep))
		p = slices.Grow(p, k)
		if _, err := io.ReadFull(br, p[len(p):len(p)+k]); err != nil {
			return nil, err
		}
		p = p[:len(p)+k]
	}
	*buf = p
	return p, nil
}
