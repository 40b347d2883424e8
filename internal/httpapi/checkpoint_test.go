package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/core"
	"firehose/internal/stream"
)

// serverPair builds two identically configured servers (sequential or
// parallel backend) so a snapshot of one can restore into the other.
func serverPair(t *testing.T, parallel bool) (a, b *Server) {
	t.Helper()
	build := func() *Server {
		g := authorsim.NewGraph(4, []authorsim.SimPair{{A: 0, B: 1}, {A: 2, B: 3}}, 0.7)
		th := core.Thresholds{LambdaC: 4, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
		subs := [][]int32{{0, 1}, {2, 3}, {0, 3}}
		if parallel {
			pe, err := stream.NewParallelMultiEngine(core.AlgNeighborBin, g, subs, th, 2)
			if err != nil {
				t.Fatal(err)
			}
			return NewParallel(pe)
		}
		md, err := core.NewSharedMultiUser(core.AlgNeighborBin, g, subs, th)
		if err != nil {
			t.Fatal(err)
		}
		return New(md)
	}
	return build(), build()
}

func postJSON(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

func ingestAt(t *testing.T, s *Server, author int, tm int64, text string) IngestResponse {
	t.Helper()
	rec := postJSON(t, s, "/v1/ingest",
		fmt.Sprintf(`{"author":%d,"text":%q,"timeMillis":%d}`, author, text, tm))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
	var out IngestResponse
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerSnapshotRestoreRoundTrip: ingest a prefix, snapshot, restore into
// a fresh server, and assert the suffix decides identically — ids, watermark
// enforcement and deliveries all resume where the snapshot stopped.
func TestServerSnapshotRestoreRoundTrip(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			orig, fresh := serverPair(t, parallel)

			texts := []string{
				"ferry sinks, 300 missing", "ferry sinking updates here",
				"local team wins the cup", "weather turns stormy tonight",
				"ferry rescue effort grows", "cup parade downtown today",
			}
			for i, txt := range texts {
				ingestAt(t, orig, i%4, int64(1000*(i+1)), txt)
			}

			var buf bytes.Buffer
			if err := orig.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}

			// The restored server enforces the snapshot's time watermark.
			rec := postJSON(t, fresh, "/v1/ingest", `{"author":0,"text":"late","timeMillis":500}`)
			if rec.Code != http.StatusConflict {
				t.Fatalf("stale post after restore: status %d, want 409", rec.Code)
			}

			// The suffix decides identically on both servers.
			suffix := []string{
				"ferry inquiry announced now", "totally new festival begins",
				"cup winners give interviews", "storm damage reports coming",
			}
			for i, txt := range suffix {
				tm := int64(1000 * (len(texts) + i + 1))
				got := ingestAt(t, fresh, (i+1)%4, tm, txt)
				want := ingestAt(t, orig, (i+1)%4, tm, txt)
				if got.ID != want.ID {
					t.Fatalf("post %d: id %d != %d", i, got.ID, want.ID)
				}
				if fmt.Sprint(got.Delivered) != fmt.Sprint(want.Delivered) {
					t.Fatalf("post %d: delivered %v != %v", i, got.Delivered, want.Delivered)
				}
			}
		})
	}
}

// TestAdminCheckpointAnswersBeforeReturn: POST /v1/admin/checkpoint sends
// its whole answer, with an exact Content-Length, before the handler
// returns, so the client does not wait for retention. The handler here is
// held open after the answer until the client has read it; an answer sent
// only on return, or framed chunked, never completes in time.
func TestAdminCheckpointAnswersBeforeReturn(t *testing.T) {
	api, _ := serverPair(t, false)
	mgr, err := checkpoint.NewManager(t.TempDir(), 1, api.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	api.EnableCheckpoints(mgr)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		<-release
	}))
	defer ts.Close()
	defer close(release)

	client := &http.Client{Timeout: 5 * time.Second}
	for seq := uint64(1); seq <= 2; seq++ {
		resp, err := client.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", seq, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("checkpoint %d: reading the answer while the handler runs: %v", seq, err)
		}
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("checkpoint %d: status %d, Content-Length %d, Transfer-Encoding %v for a %d-byte answer %s",
				seq, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body), body)
		}
		var info CheckpointInfo
		if err := json.Unmarshal(body, &info); err != nil || info.Seq != seq {
			t.Fatalf("checkpoint %d: answer %s (%v)", seq, body, err)
		}
		release <- struct{}{} // let this handler return; the next request opens its own
	}
}

// TestAdminCheckpointEndpoints drives the full durability loop over HTTP:
// write checkpoints through the admin endpoint, list them, watch retention
// prune, and restore the newest into a fresh server.
func TestAdminCheckpointEndpoints(t *testing.T) {
	orig, fresh := serverPair(t, true)
	dir := t.TempDir()
	mgr, err := checkpoint.NewManager(dir, 2, orig.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	orig.EnableCheckpoints(mgr)

	ingestAt(t, orig, 0, 1000, "ferry sinks, 300 missing")
	var infos []CheckpointInfo
	for i := 0; i < 3; i++ {
		rec := postJSON(t, orig, "/v1/admin/checkpoint", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("checkpoint %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var info CheckpointInfo
		if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	if infos[0].Seq != 1 || infos[2].Seq != 3 {
		t.Fatalf("sequence numbers %v, want 1..3", infos)
	}

	// Retention keeps the newest two.
	rec := httptest.NewRecorder()
	orig.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/admin/checkpoints", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("list: status %d", rec.Code)
	}
	var list CheckpointsResponse
	if err := json.NewDecoder(rec.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Checkpoints) != 2 || list.Checkpoints[0].Seq != 2 || list.Checkpoints[1].Seq != 3 {
		t.Fatalf("retained %+v, want seqs 2 and 3", list.Checkpoints)
	}

	// Restore the newest into a fresh server; the id sequence continues.
	files, err := checkpoint.List(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("List: files=%v err=%v", files, err)
	}
	newest, err := os.Open(files[len(files)-1].Path)
	if err != nil {
		t.Fatal(err)
	}
	defer newest.Close()
	if err := fresh.Restore(newest); err != nil {
		t.Fatalf("restoring the newest checkpoint: %v", err)
	}
	out := ingestAt(t, fresh, 2, 2000, "local team wins the cup")
	if out.ID != 2 {
		t.Fatalf("post id after restore = %d, want 2", out.ID)
	}
}

// TestRestoreRejectsForeignKind: a raw engine snapshot is not a server
// snapshot, and a shard worker's snapshot is not this node's; both must be
// refused before any state is touched, the topology refusal naming the
// config knobs an operator has to match.
func TestRestoreRejectsForeignKind(t *testing.T) {
	s, worker := serverPair(t, false)
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf, "something.Else")
	enc.String("section")
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	err := s.Restore(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "httpapi.Server") {
		t.Fatalf("err = %v, want kind mismatch naming httpapi.Server", err)
	}

	worker.SetTopology(1, 2, 0xfeed)
	buf.Reset()
	if err := worker.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	err = s.Restore(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), CodeShardMismatch) ||
		!strings.Contains(err.Error(), "matching shard.index/shard.count") {
		t.Fatalf("err = %v, want a shard_mismatch naming shard.index/shard.count", err)
	}
	// The server still ingests normally.
	ingestAt(t, s, 0, 1000, "still alive after bad restore")
}
