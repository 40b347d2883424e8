package connector_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"firehose/internal/connector"
	"firehose/internal/connector/connectortest"
)

// This file runs every built-in plugin through the shared conformance suite;
// plugin-specific behavior (rotation following, cursor history, retry
// classification) lives in the per-plugin test files.

// fileWorld backs the file-input harnesses: one NDJSON file (and its ack
// sidecar) shared by every instance, which is what makes the durable
// replay-from-watermark test meaningful.
type fileWorld struct {
	path string
	tail bool
}

func (w *fileWorld) New(t *testing.T) connector.Input {
	t.Helper()
	if _, err := os.Stat(w.path); os.IsNotExist(err) {
		if err := os.WriteFile(w.path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in, err := connector.NewFileInput(w.path, connector.FileInputOptions{Tail: w.tail})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func (w *fileWorld) Feed(t *testing.T, _ connector.Input, msgs []connector.Message) {
	t.Helper()
	f, err := os.OpenFile(w.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, m := range msgs {
		if _, err := fmt.Fprintf(f, `{"author":%d,"timeMillis":%d,"text":%q}`+"\n", m.Author, m.TimeMillis, m.Text); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInputConformance(t *testing.T) {
	for _, h := range []connectortest.InputHarness{
		{
			Name: "file", Finite: true,
			Setup: func(t *testing.T) connectortest.InputWorld {
				return &fileWorld{path: filepath.Join(t.TempDir(), "posts.ndjson")}
			},
		},
		{
			Name: "file-tail",
			Setup: func(t *testing.T) connectortest.InputWorld {
				return &fileWorld{path: filepath.Join(t.TempDir(), "posts.ndjson"), tail: true}
			},
		},
	} {
		t.Run(h.Name, func(t *testing.T) { connectortest.RunInput(t, h) })
	}
}

// webhookWorld runs a real HTTP sink and decodes every POSTed delivery.
type webhookWorld struct {
	mu  sync.Mutex
	got []connector.Delivery
	srv *httptest.Server
}

func newWebhookWorld(t *testing.T) *webhookWorld {
	w := &webhookWorld{}
	w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var d connector.Delivery
		if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		w.mu.Lock()
		w.got = append(w.got, d)
		w.mu.Unlock()
	}))
	t.Cleanup(w.srv.Close)
	return w
}

func (w *webhookWorld) New(t *testing.T) connector.Output {
	t.Helper()
	out, err := connector.NewWebhookOutput(connector.WebhookConfig{URL: w.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (w *webhookWorld) Received(t *testing.T) []connector.Delivery {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]connector.Delivery(nil), w.got...)
}

// sseWorld collects the deliveries handed to the broker publish callback.
type sseWorld struct {
	mu  sync.Mutex
	got []connector.Delivery
}

func (w *sseWorld) New(t *testing.T) connector.Output {
	t.Helper()
	out, err := connector.NewSSEOutput(func(d connector.Delivery) {
		w.mu.Lock()
		w.got = append(w.got, d)
		w.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (w *sseWorld) Received(t *testing.T) []connector.Delivery {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]connector.Delivery(nil), w.got...)
}

func TestOutputConformance(t *testing.T) {
	for _, h := range []connectortest.OutputHarness{
		{
			Name:  "webhook",
			Setup: func(t *testing.T) connectortest.OutputWorld { return newWebhookWorld(t) },
		},
		{
			Name:  "sse",
			Setup: func(t *testing.T) connectortest.OutputWorld { return &sseWorld{} },
		},
	} {
		t.Run(h.Name, func(t *testing.T) { connectortest.RunOutput(t, h) })
	}
}
