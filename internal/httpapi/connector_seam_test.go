package httpapi

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"firehose/internal/connector"
)

// Tests for the connector-facing seams of the HTTP layer: the IngestPost
// engine seam, the delivery hook, the snapshot watermark, and the per-user
// SSE drop accounting the connector metrics build on.

// TestBrokerPerUserDropAccounting: every undelivered event is attributed to
// the user that missed it — both buffer-full discards and events still
// buffered when the subscriber disconnects — and the per-user tallies sum to
// the global drop counter.
func TestBrokerPerUserDropAccounting(t *testing.T) {
	b := newBroker()
	s3 := b.subscribe(3)
	defer b.unsubscribe(s3)
	s4 := b.subscribe(4)

	// Overfill user 3's buffer: exactly 5 buffer-full discards.
	for i := 0; i < cap(s3.ch)+5; i++ {
		b.publish([]int32{3}, TimelinePost{ID: uint64(i)})
	}
	// User 4 never reads its 2 events and disconnects: 2 disconnect drops.
	b.publish([]int32{4}, TimelinePost{ID: 900})
	b.publish([]int32{4}, TimelinePost{ID: 901})
	b.unsubscribe(s4)

	drops := b.userDrops()
	if drops[3] != 5 {
		t.Errorf("user 3 drops = %d, want 5 (buffer-full)", drops[3])
	}
	if drops[4] != 2 {
		t.Errorf("user 4 drops = %d, want 2 (buffered at disconnect)", drops[4])
	}
	_, dropped := b.eventCounts()
	var sum uint64
	for _, n := range drops {
		sum += n
	}
	if dropped != sum {
		t.Errorf("global dropped = %d but per-user drops sum to %d", dropped, sum)
	}
	// A second unsubscribe of the same subscriber must not double-count.
	b.unsubscribe(s4)
	if d := b.userDrops(); d[4] != 2 {
		t.Errorf("double unsubscribe inflated user 4 drops to %d", d[4])
	}
}

// TestSSEUserDroppedMetricExposed: the per-user split appears on /metrics as
// firehose_sse_user_dropped_total{user="N"}.
func TestSSEUserDroppedMetricExposed(t *testing.T) {
	s := newAPIServer(t)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	sub := s.broker.subscribe(2)
	defer s.broker.unsubscribe(sub)
	for i := 0; i < cap(sub.ch)+3; i++ {
		s.broker.publish([]int32{2}, TimelinePost{ID: uint64(i)})
	}
	body, _ := scrape(t, ts)
	checkExpositionFormat(t, body)
	if v := metricValue(t, body, `firehose_sse_user_dropped_total{user="2"}`); v != 3 {
		t.Fatalf("firehose_sse_user_dropped_total{user=\"2\"} = %v, want 3", v)
	}
	if v := metricValue(t, body, "firehose_sse_events_dropped_total"); v != 3 {
		t.Fatalf("firehose_sse_events_dropped_total = %v, want 3", v)
	}
}

// fakeStats is a StatsSource with fixed counters.
type fakeStats struct{ stats []connector.Stat }

func (f fakeStats) ConnectorStats() []connector.Stat { return f.stats }

// TestConnectorMetricsMounted: MountConnectorMetrics exposes the
// firehose_connector_* families, one series per component.
func TestConnectorMetricsMounted(t *testing.T) {
	s := newAPIServer(t)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	s.MountConnectorMetrics(fakeStats{stats: []connector.Stat{
		{Component: "input:file", Read: 10, Ingested: 8, Skipped: 2, Acked: 5, AckSeq: 5},
		{Component: "output:webhook#0", Written: 8, Retries: 3, Dropped: 1, Errors: 4},
	}})

	body, _ := scrape(t, ts)
	checkExpositionFormat(t, body)
	for series, want := range map[string]float64{
		`firehose_connector_read_total{component="input:file"}`:          10,
		`firehose_connector_ingested_total{component="input:file"}`:      8,
		`firehose_connector_skipped_total{component="input:file"}`:       2,
		`firehose_connector_ack_total{component="input:file"}`:           5,
		`firehose_connector_ack_seq{component="input:file"}`:             5,
		`firehose_connector_write_total{component="output:webhook#0"}`:   8,
		`firehose_connector_retry_total{component="output:webhook#0"}`:   3,
		`firehose_connector_dropped_total{component="output:webhook#0"}`: 1,
		`firehose_connector_error_total{component="output:webhook#0"}`:   4,
	} {
		if v := metricValue(t, body, series); v != want {
			t.Errorf("%s = %v, want %v", series, v, want)
		}
	}
}

// TestIngestPostSeam: the connector runner's engine seam classifies failures
// the way the HTTP handlers do.
func TestIngestPostSeam(t *testing.T) {
	s := newAPIServer(t)
	defer s.Close()

	id, users, err := s.IngestPost(0, 1000, "ferry sinks, 300 missing")
	if err != nil || id != 1 {
		t.Fatalf("IngestPost: id=%d users=%v err=%v", id, users, err)
	}
	if users == nil {
		t.Fatal("users must be non-nil (empty means delivered to no one)")
	}

	if _, _, err := s.IngestPost(0, 900, "late"); err == nil {
		t.Fatal("disordered post accepted")
	} else {
		var de *DisorderError
		if !errors.As(err, &de) || de.Watermark != 1000 {
			t.Fatalf("disorder error = %v, want DisorderError{Watermark: 1000}", err)
		}
		if !errors.Is(err, connector.ErrRejected) {
			t.Fatalf("disorder error %v is not a deterministic rejection", err)
		}
	}

	if _, _, err := s.IngestPost(0, 2000, ""); !errors.Is(err, ErrEmptyText) || !errors.Is(err, connector.ErrRejected) {
		t.Fatalf("empty text error = %v, want ErrEmptyText, a deterministic rejection", err)
	}

	// Neither rejection consumed an id.
	id2, _, err := s.IngestPost(1, 3000, "alibaba files for landmark market listing")
	if err != nil || id2 != 2 {
		t.Fatalf("next accepted post: id=%d err=%v, want id 2", id2, err)
	}
}

// TestDeliveryHookReroutesEgress: with a hook installed, deliveries go to the
// hook instead of the broker; PublishSSE still reaches the broker directly
// (that is how the "sse" output plugin feeds it without recursing).
func TestDeliveryHookReroutesEgress(t *testing.T) {
	s := newAPIServer(t)
	defer s.Close()

	var hooked []TimelinePost
	s.SetDeliveryHook(func(p TimelinePost, users []int32) {
		hooked = append(hooked, p)
	})
	sub := s.broker.subscribe(0)
	defer s.broker.unsubscribe(sub)

	if _, _, err := s.IngestPost(0, 1000, "ferry sinks, 300 missing"); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 {
		t.Fatalf("hook saw %d deliveries, want 1", len(hooked))
	}
	if len(sub.ch) != 0 {
		t.Fatal("broker received a delivery the hook should have intercepted")
	}

	s.PublishSSE(TimelinePost{ID: 9}, []int32{0})
	if len(sub.ch) != 1 {
		t.Fatal("PublishSSE did not reach the broker")
	}
	if len(hooked) != 1 {
		t.Fatal("PublishSSE recursed into the delivery hook")
	}
}

// TestSnapshotWatermark: the watermark is the nextID captured by the last
// snapshot — 0 before any checkpoint, exact afterwards.
func TestSnapshotWatermark(t *testing.T) {
	s := newAPIServer(t)
	defer s.Close()

	if w := s.SnapshotWatermark(); w != 0 {
		t.Fatalf("watermark before any snapshot = %d, want 0", w)
	}
	if _, _, err := s.IngestPost(0, 1000, "ferry sinks, 300 missing"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.IngestPost(1, 2000, "alibaba files for landmark market listing"); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	if w := s.SnapshotWatermark(); w != 2 {
		t.Fatalf("watermark after snapshot = %d, want 2", w)
	}
}

// TestDisableHTTPIngestKeepsSeamOpen: disabling push ingest 503s the HTTP
// handlers but leaves the runner's engine seam working.
func TestDisableHTTPIngestKeepsSeamOpen(t *testing.T) {
	s := newAPIServer(t)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	s.DisableHTTPIngest()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json",
		strings.NewReader(`{"author":0,"text":"x","timeMillis":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("push ingest while disabled: status %d, want 503", resp.StatusCode)
	}
	if _, _, err := s.IngestPost(0, 1000, "ferry sinks, 300 missing"); err != nil {
		t.Fatalf("pipeline seam rejected while push disabled: %v", err)
	}
}
