package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// formerAliases lists every path the server once also served unversioned,
// with the request that exercises its /v1 twin and the status that twin
// answers.
var formerAliases = []struct {
	method, path, body string
	status             int
}{
	{"POST", "/ingest", `{"author":0,"text":"harbor bridge reopens","timeMillis":1000}`, http.StatusOK},
	{"POST", "/ingest/batch", `{"posts":[{"author":2,"text":"election recount ordered","timeMillis":2000}]}`, http.StatusOK},
	{"GET", "/timeline?user=abc", "", http.StatusBadRequest},
	{"GET", "/stream?user=abc", "", http.StatusBadRequest},
	{"GET", "/users/0/stats", "", http.StatusOK},
	{"GET", "/stats", "", http.StatusOK},
	{"GET", "/metrics", "", http.StatusOK},
	{"GET", "/healthz", "", http.StatusOK},
}

func serveRoute(s http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestUnversionedRoutesGone: /v1 is the only surface. Every former alias
// path answers 404, and its /v1 twin still answers with the same status.
func TestUnversionedRoutesGone(t *testing.T) {
	s := newAPIServer(t)
	for _, r := range formerAliases {
		if rec := serveRoute(s, r.method, r.path, r.body); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", r.method, r.path, rec.Code)
		}
		if rec := serveRoute(s, r.method, "/v1"+r.path, r.body); rec.Code != r.status {
			t.Errorf("%s /v1%s: status %d, want %d", r.method, r.path, rec.Code, r.status)
		}
	}
}

// TestAliasDeprecationHeaders: with the aliases gone no response carries
// RFC 9745/8594 deprecation metadata — neither the 404 on a former alias
// path nor its canonical /v1 twin.
func TestAliasDeprecationHeaders(t *testing.T) {
	s := newAPIServer(t)
	for _, r := range formerAliases {
		for _, path := range []string{r.path, "/v1" + r.path} {
			rec := serveRoute(s, r.method, path, r.body)
			for _, h := range []string{"Deprecation", "Sunset"} {
				if got := rec.Header().Get(h); got != "" {
					t.Errorf("%s %s: unexpected %s header %q", r.method, path, h, got)
				}
			}
		}
	}
}
