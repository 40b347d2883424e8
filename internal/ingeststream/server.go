package ingeststream

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

var (
	// ErrUpgradeRequired refuses a request that does not ask for the
	// server's protocol, or whose connection cannot be taken over.
	ErrUpgradeRequired = errors.New("ingeststream: upgrade required")
	// ErrClosed refuses a stream after Close.
	ErrClosed = errors.New("ingeststream: server closed")
)

// Decide decides one request frame. It returns the ingested post's id and
// deliveries, or writes the refusal's HTTP answer to refuse (the error
// envelope the same refusal has over HTTP) and reports false.
type Decide func(req *Request, refuse http.ResponseWriter) (id uint64, users []int32, ok bool)

// Server is one endpoint's end of its streams: it upgrades a request's
// connection, serves the stream's frames on a goroutine of its own, and
// Close ends every live stream. A hijacked connection is invisible to
// http.Server.Shutdown, so nothing else would.
type Server struct {
	protocol string
	// exclusive serves one stream at a time: a newer stream closes the live
	// one. It marks the shard hop, whose one client is the router.
	exclusive bool

	// mu guards: live, closed
	// With exclusive set it is also held across each frame's decision, which
	// makes a decision atomic with the check that its stream is still live
	// and so keeps a superseded stream's leftover frames out of the engine.
	mu     sync.Mutex
	live   map[net.Conn]struct{}
	closed bool

	// streams counts serve goroutines; Close waits for them.
	streams sync.WaitGroup
}

// NewServer builds the server of one endpoint speaking protocol. With
// exclusive set it serves one stream at a time, and a newer stream closes
// the live one: the shard hop's one router must not have a half-open
// leftover of its previous connection interleave frames with the new one's.
func NewServer(protocol string, exclusive bool) *Server {
	return &Server{protocol: protocol, exclusive: exclusive, live: make(map[net.Conn]struct{})}
}

// Protocol returns the server's Upgrade token.
func (s *Server) Protocol() string { return s.protocol }

// Serve upgrades r's connection and serves its frames with decide on a
// goroutine of its own, until the stream ends: the handler may return at
// once, since the HTTP server treats a hijacked connection as finished. It
// writes nothing when it does not upgrade and returns why: ErrUpgradeRequired
// or ErrClosed, or the hijack's error.
func (s *Server) Serve(rw http.ResponseWriter, r *http.Request, decide Decide) error {
	hj, ok := rw.(http.Hijacker)
	if !ok || !strings.EqualFold(r.Header.Get("Upgrade"), s.protocol) {
		return ErrUpgradeRequired
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("ingeststream: %w", err)
	}
	if s.exclusive {
		for c := range s.live {
			_ = c.Close()
			delete(s.live, c)
		}
	}
	s.live[conn] = struct{}{}
	s.streams.Add(1)
	s.mu.Unlock()
	// A client stream, open to anyone, keeps the bounds of the http.Server
	// that accepted it, which do not reach a hijacked connection: idle for a
	// frame's prefix and its reply's write, frame for its payload. The
	// router's stream idles unbounded between posts.
	var idle, frame time.Duration
	if hs, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok && !s.exclusive {
		idle, frame = cmp.Or(hs.IdleTimeout, hs.ReadTimeout), hs.ReadTimeout
	}
	go s.serve(conn, buf, idle, frame, decide)
	return nil
}

// Close ends every live stream, refuses new ones and waits for the serving
// goroutines. A decision in flight finishes first; its reply is lost with
// the connection.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.live {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.streams.Wait()
}

// serve is the server's end of one stream: read a frame, decide it on this
// goroutine, write the reply. Any I/O or framing error ends it.
func (s *Server) serve(conn net.Conn, buf *bufio.ReadWriter, idle, frame time.Duration, decide Decide) {
	defer s.streams.Done()
	defer func() {
		s.mu.Lock()
		delete(s.live, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// The HTTP server armed its ReadTimeout for the Upgrade request; idle and
	// frame apply from here on.
	_ = conn.SetDeadline(time.Time{})
	if _, err := buf.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + s.protocol + "\r\n\r\n"); err != nil {
		return
	}
	if err := buf.Flush(); err != nil {
		return
	}
	var in, out []byte
	refusal := envelopeRecorder{header: make(http.Header)}
	for {
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		n, err := readHeader(buf.Reader)
		if err != nil {
			return
		}
		if frame > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(frame))
		}
		payload, err := readPayload(buf.Reader, n, &in)
		if err != nil {
			return
		}
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		if cap(in) > 1<<20 { // POST /v1/ingest's pooling bound; req copied the text out
			in = nil
		}
		var live bool
		if out, live = s.decide(conn, decide, &req, &refusal, out[:0]); !live {
			return
		}
		if idle > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(idle))
		}
		if _, err := buf.Write(out); err != nil {
			return
		}
		// Replies to a pipeline go out together: flush only once no further
		// request is waiting to be read.
		if buf.Reader.Buffered() == 0 {
			if err := buf.Flush(); err != nil {
				return
			}
		}
	}
}

// decide runs one frame's decision and appends its reply frame to dst. It
// reports false, having decided nothing, when an exclusive server's conn is
// no longer live: a newer stream or Close took over while this frame was
// already read.
func (s *Server) decide(conn net.Conn, decide Decide, req *Request, refusal *envelopeRecorder, dst []byte) ([]byte, bool) {
	if s.exclusive {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.live[conn]; !ok {
			return dst, false
		}
	}
	refusal.status, refusal.body = 0, refusal.body[:0]
	id, users, ok := decide(req, refusal)
	if !ok {
		return appendErrReply(dst, refusal.status, refusal.body), true
	}
	return appendOKReply(dst, id, users), true
}

// envelopeRecorder captures a refusal's HTTP answer, so its reply frame
// carries the status and envelope bytes the same refusal has over HTTP.
type envelopeRecorder struct {
	header http.Header
	status int
	body   []byte
}

func (r *envelopeRecorder) Header() http.Header { return r.header }

func (r *envelopeRecorder) WriteHeader(status int) { r.status = status }

func (r *envelopeRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}
