package shard

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// This file is the shard stream's codec and the router's end of one open
// stream; wire.go documents the protocol, worker.go serves the other end.

const (
	// maxFrame bounds a frame's payload: a length prefix above it is a framing
	// error, so a corrupt or hostile prefix cannot make the reader allocate
	// more than this.
	maxFrame = 16 << 20
	// frameHeader is the size of the big-endian payload length prefix.
	frameHeader = 4
	// maxText is the longest post text that still fits a request frame.
	maxText = maxFrame - 4*binary.MaxVarintLen64

	replyOK  byte = 0
	replyErr byte = 1
)

// errFrame reports bytes that are not a frame of this protocol. The stream
// cannot be re-synchronised past one, so the reader drops the connection.
var errFrame = errors.New("shard: malformed stream frame")

// sealFrame fills in the length prefix reserved at dst[at:] once the payload
// behind it is complete.
func sealFrame(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-frameHeader))
	return dst
}

// appendRequest appends r to dst as one request frame.
func appendRequest(dst []byte, r *IngestRequest) []byte {
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
func decodeRequest(p []byte) (IngestRequest, error) {
	var r IngestRequest
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

// appendOKReply appends the reply frame of an ingested post: the users whose
// timelines received it.
func appendOKReply(dst []byte, users []int32) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, replyOK)
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

// frameReply is a decoded reply frame.
type frameReply struct {
	// status is 0 for an ingested post, the refusal's HTTP status otherwise.
	status int
	// users are an ingested post's deliveries (empty, never nil).
	users []int32
	// envelope is a refusal's JSON error envelope. It aliases the payload.
	envelope []byte
}

// decodeReply parses a reply frame's payload.
func decodeReply(p []byte) (frameReply, error) {
	if len(p) == 0 {
		return frameReply{}, errFrame
	}
	switch p[0] {
	case replyOK:
		p = p[1:]
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
				return frameReply{}, errFrame
			}
			users = append(users, int32(u))
			p = p[k:]
		}
		return frameReply{users: users}, nil
	case replyErr:
		status, k := binary.Uvarint(p[1:])
		if k <= 0 || status < 100 || status > 999 {
			return frameReply{}, errFrame
		}
		return frameReply{status: int(status), envelope: p[1+k:]}, nil
	}
	return frameReply{}, errFrame
}

// readFrame reads one frame from br and returns its payload, which lives in
// *buf (grown as needed, reused by the next call).
func readFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte payload exceeds the %d-byte bound", errFrame, n, maxFrame)
	}
	_, _ = br.Discard(frameHeader) // cannot fail: Peek buffered them
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	p := (*buf)[:n]
	_, err = io.ReadFull(br, p)
	return p, err
}

// errBound reports a reply that did not arrive within the per-forward bound.
var errBound = errors.New("no reply within the per-forward bound")

// streamConn is the router's end of one open shard stream. It has no lock of
// its own: exchanges run one at a time under the owning shardStream's mutex.
// close is the exception — it only touches the connection, the timer and the
// context, all safe for concurrent use — so Router.Close can sever a stream
// under an exchange in flight.
type streamConn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	// bound is how long one reply may take (the router client's Timeout; 0
	// means unbounded). timer enforces it by closing rwc, because a hijacked
	// HTTP body has no deadlines; it is nil when unbounded and re-armed per
	// reply otherwise.
	bound time.Duration
	timer *time.Timer
	// release cancels the Upgrade request's context.
	release    context.CancelFunc
	wbuf, rbuf []byte
}

// dialStream opens a stream to peer through tr. A worker that answers
// anything but 101 Switching Protocols yields a nil stream with the answer's
// status and body for the caller to classify. topology is the
// Firehose-Topology header value (omitted when empty).
func dialStream(tr http.RoundTripper, peer, topology string, bound time.Duration) (*streamConn, int, []byte, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+streamPath, nil)
	if err != nil {
		cancel()
		return nil, 0, nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", StreamProtocol)
	if topology != "" {
		req.Header.Set(TopologyHeader, topology)
	}
	if bound > 0 {
		// The handshake is bounded like a reply: a peer that accepts the
		// connection and never answers must not wedge the dial.
		t := time.AfterFunc(bound, cancel)
		defer t.Stop()
	}
	// Transport, not Client.Do: Client.Timeout wraps the response body and
	// hides its writer.
	resp, err := tr.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, 0, nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
		cancel()
		return nil, resp.StatusCode, body, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok {
		_ = resp.Body.Close()
		cancel()
		return nil, 0, nil, fmt.Errorf("the HTTP transport cannot carry a %s stream: the 101 response body is not writable", StreamProtocol)
	}
	sc := &streamConn{rwc: rwc, br: bufio.NewReader(rwc), bound: bound, release: cancel}
	if bound > 0 {
		sc.timer = time.AfterFunc(bound, func() { _ = rwc.Close() })
		sc.timer.Stop()
	}
	return sc, resp.StatusCode, nil, nil
}

// arm starts (or restarts) the wait for one reply.
func (sc *streamConn) arm() {
	if sc.timer != nil {
		sc.timer.Reset(sc.bound)
	}
}

// close severs the stream. Safe to call twice and concurrently with roundTrip.
func (sc *streamConn) close() {
	if sc.timer != nil {
		sc.timer.Stop()
	}
	_ = sc.rwc.Close()
	sc.release()
}

// roundTrip writes every request as one frame, back to back, and reads one
// reply per frame, in order. accepted counts the leading posts the worker
// ingested, whose deliveries land in out (nil discards them). status and
// envelope are the first refusal (0 when there is none): the Prev chain makes
// the worker refuse every frame after it, so those replies are read and
// dropped. moved is the bytes written and read. A non-nil err means the
// stream is broken — I/O failure, bad frame, or a reply that overran the
// bound — and the caller must close it.
func (sc *streamConn) roundTrip(reqs []IngestRequest, out [][]int32) (accepted, status int, envelope []byte, moved int, err error) {
	sc.wbuf = sc.wbuf[:0]
	for i := range reqs {
		sc.wbuf = appendRequest(sc.wbuf, &reqs[i])
	}
	sc.arm()
	var written chan struct{}
	if len(reqs) == 1 {
		if _, err = sc.rwc.Write(sc.wbuf); err != nil {
			return 0, 0, nil, 0, err
		}
	} else {
		// A pipeline's replies can fill the socket buffers before its last
		// request is written (a post delivered to every user is a ≈15 KB
		// reply), and the worker stops reading while its replies back up.
		// Writing on the side keeps both directions draining.
		written = make(chan struct{})
		go func() {
			defer close(written)
			if _, err := sc.rwc.Write(sc.wbuf); err != nil {
				_ = sc.rwc.Close() // fails the reply loop below
			}
		}()
	}
	moved = len(sc.wbuf)
	for i := range reqs {
		if i > 0 {
			sc.arm()
		}
		var payload []byte
		var rep frameReply
		if payload, err = readFrame(sc.br, &sc.rbuf); err == nil {
			rep, err = decodeReply(payload)
		}
		if err != nil {
			break
		}
		moved += frameHeader + len(payload)
		switch {
		case status != 0: // past the first refusal
		case rep.status != 0:
			status, envelope = rep.status, append([]byte(nil), rep.envelope...)
		default:
			accepted++
			if out != nil {
				out[i] = rep.users
			}
		}
	}
	if err != nil {
		_ = sc.rwc.Close() // fails the writer, if it is still going
	}
	if written != nil {
		<-written
	}
	if sc.timer != nil && !sc.timer.Stop() {
		err = errBound // the timer fired: whatever else failed, failed because it closed the connection
	}
	return accepted, status, envelope, moved, err
}
