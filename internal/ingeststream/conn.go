package ingeststream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// errBound reports a reply that did not arrive within the Conn's bound.
var errBound = errors.New("no reply within the reply bound")

// Conn is the client end of one open stream. It has no lock of its own:
// round trips run one at a time, and a caller that shares a Conn serializes
// them. Close is the exception — it only touches the connection, the timer
// and the contexts, all safe for concurrent use — and so is the Dial
// context, which closes the connection to end a stream under a round trip in
// flight.
type Conn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	// bound is how long one reply may take (0 means unbounded). timer
	// enforces it by closing rwc, because a hijacked HTTP body has no
	// deadlines; it is nil when unbounded and re-armed per reply otherwise.
	bound time.Duration
	timer *time.Timer
	// release cancels the Upgrade request's context; unbind stops the Dial
	// context closing the stream.
	release    context.CancelFunc
	unbind     func() bool
	wbuf, rbuf []byte
}

// Dial opens a stream to url (the endpoint's full URL) through tr, asking
// for protocol and sending header's fields on the Upgrade request. The
// stream closes when ctx is done. bound limits the handshake and every reply
// (0 leaves them unbounded). A server that answers anything but 101
// Switching Protocols yields a nil Conn with the answer's status and body for
// the caller to classify.
func Dial(ctx context.Context, tr http.RoundTripper, url, protocol string, header http.Header, bound time.Duration) (*Conn, int, []byte, error) {
	reqCtx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, url, nil)
	if err != nil {
		cancel()
		return nil, 0, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", protocol)
	if bound > 0 {
		// The handshake is bounded like a reply: a server that accepts the
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
		return nil, 0, nil, fmt.Errorf("the HTTP transport cannot carry a %s stream: the 101 response body is not writable", protocol)
	}
	c := &Conn{rwc: rwc, br: bufio.NewReader(rwc), bound: bound, release: cancel}
	if bound > 0 {
		c.timer = time.AfterFunc(bound, func() { _ = rwc.Close() })
		c.timer.Stop()
	}
	c.unbind = context.AfterFunc(ctx, func() { _ = rwc.Close() })
	return c, resp.StatusCode, nil, nil
}

// Close severs the stream. Safe to call twice and concurrently with
// RoundTrip.
func (c *Conn) Close() {
	if c.timer != nil {
		c.timer.Stop()
	}
	_ = c.rwc.Close()
	c.release()
	c.unbind()
}

// RoundTrip writes every request as one frame, back to back, and reads one
// reply per request into out, in order; out must be at least as long as
// reqs. n is the number of replies read. A refusal's envelope is copied out
// of the read buffer. moved is the bytes written and read. A non-nil err
// means the stream is broken — I/O failure, bad frame, or a reply that
// overran the bound — and the caller must close it.
func (c *Conn) RoundTrip(reqs []Request, out []Reply) (n, moved int, err error) {
	c.wbuf = c.wbuf[:0]
	for i := range reqs {
		c.wbuf = appendRequest(c.wbuf, &reqs[i])
	}
	if c.timer != nil { // the wait for the first reply
		c.timer.Reset(c.bound)
	}
	var written chan struct{}
	if len(reqs) == 1 {
		if _, err = c.rwc.Write(c.wbuf); err != nil {
			return 0, 0, err
		}
	} else {
		// A pipeline's replies can fill the socket buffers before its last
		// request is written (a post delivered to every user is a ≈15 KB
		// reply), and the server stops reading while its replies back up.
		// Writing on the side keeps both directions draining.
		written = make(chan struct{})
		go func() {
			defer close(written)
			if _, err := c.rwc.Write(c.wbuf); err != nil {
				_ = c.rwc.Close() // fails the reply loop below
			}
		}()
	}
	moved = len(c.wbuf)
	for n < len(reqs) {
		if n > 0 && c.timer != nil {
			c.timer.Reset(c.bound)
		}
		var payload []byte
		var rep Reply
		if payload, err = readFrame(c.br, &c.rbuf); err == nil {
			rep, err = decodeReply(payload)
		}
		if err != nil {
			break
		}
		moved += frameHeader + len(payload)
		if rep.Status != 0 {
			rep.Envelope = append([]byte(nil), rep.Envelope...)
		}
		out[n] = rep
		n++
	}
	if err != nil {
		_ = c.rwc.Close() // fails the writer, if it is still going
	}
	if written != nil {
		<-written
	}
	if c.timer != nil && !c.timer.Stop() {
		err = errBound // the timer fired: whatever else failed, failed because it closed the connection
	}
	return n, moved, err
}
