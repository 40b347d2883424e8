package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"

	"firehose/internal/connector"
)

// TestKillAndRecover is the crash-recovery integration test: it runs the real
// firehosed binary, checkpoints it over the admin API, SIGKILLs it
// mid-stream, restarts it on the same checkpoint directory and asserts the
// recovered process (a) continues the id sequence without reuse, (b) decides
// a replayed suffix identically, and (c) still remembers pre-checkpoint posts
// — a near-duplicate of an already-delivered post is NOT emitted again, which
// is exactly what a cold restart without the checkpoint would get wrong.
func TestKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and execs the daemon; skipped in -short")
	}

	bin := buildFirehosed(t)
	ckptDir := filepath.Join(t.TempDir(), "checkpoints")
	addr := freeAddr(t)
	base := "http://" + addr

	args := configArgs(t, func(c *connector.Config) {
		c.HTTP.Addr = addr
		c.Engine.Authors, c.Engine.Seed = 40, 7
		c.Engine.Algorithm, c.Engine.Workers = "neighborbin", 2
		c.Engine.Checkpoint.Dir, c.Engine.Checkpoint.Retain = ckptDir, 0
	})
	daemon := func() *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting firehosed: %v", err)
		}
		waitHealthy(t, base)
		return cmd
	}

	// --- First life: ingest, checkpoint, ingest a doomed suffix, die hard.
	first := daemon()
	defer func() { _ = first.Process.Kill() }()

	// A spread of distinct posts; remember one that was actually delivered so
	// the duplicate check below has teeth.
	var dupAuthor int
	var dupDelivered bool
	for i := 0; i < 12; i++ {
		author := i % 40
		delivered := ingestPost(t, base, author, int64(1000*(i+1)),
			fmt.Sprintf("story %d: reactor four is venting steam tonight", i))
		if !dupDelivered && len(delivered.Delivered) > 0 {
			dupAuthor, dupDelivered = author, true
		}
	}
	if !dupDelivered {
		t.Fatal("no seeded post was delivered to anyone; the duplicate check would be vacuous")
	}

	resp, err := http.Post(base+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin checkpoint: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The doomed suffix: ingested after the checkpoint, lost by SIGKILL,
	// replayed after recovery.
	type suffixPost struct {
		author int
		tm     int64
		text   string
		id     uint64
		users  []int32
	}
	suffix := []suffixPost{
		{author: 1, tm: 20000, text: "completely fresh topic: harbor bridge reopens"},
		{author: 3, tm: 21000, text: "another new thread: election recount ordered"},
	}
	for i := range suffix {
		r := ingestPost(t, base, suffix[i].author, suffix[i].tm, suffix[i].text)
		suffix[i].id, suffix[i].users = r.ID, r.Delivered
	}

	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = first.Wait() // reaps the SIGKILLed process; its error is the kill itself

	// --- Second life: recover from the checkpoint.
	second := daemon()
	defer func() { _ = second.Process.Kill() }()

	// The recovered engine is at the checkpoint cut: the suffix replays with
	// the same ids (no reuse, no gap-induced duplicates) and identical
	// decisions.
	for _, p := range suffix {
		r := ingestPost(t, base, p.author, p.tm, p.text)
		if r.ID != p.id {
			t.Errorf("replayed %q: id %d, want %d", p.text, r.ID, p.id)
		}
		if !sameUsers(r.Delivered, p.users) {
			t.Errorf("replayed %q: delivered %v, want %v", p.text, r.Delivered, p.users)
		}
	}

	// No duplicate emissions: a near-duplicate of a pre-checkpoint post that
	// WAS delivered must be suppressed by the recovered state.
	dup := ingestPost(t, base, dupAuthor, 22000,
		"story 0: reactor four is venting steam tonight again")
	if len(dup.Delivered) != 0 {
		t.Errorf("near-duplicate of a pre-checkpoint post was re-emitted to %v", dup.Delivered)
	}

	// Graceful shutdown writes one more checkpoint.
	if err := second.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	files, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	sort.Strings(names)
	if len(names) < 2 {
		t.Fatalf("checkpoint dir holds %v, want the admin checkpoint plus a shutdown checkpoint", names)
	}
}

// ingestResponse mirrors httpapi.IngestResponse without importing it (the
// test talks to the daemon the way a client would).
type ingestResponse struct {
	ID        uint64  `json:"id"`
	Delivered []int32 `json:"delivered"`
}

func ingestPost(t *testing.T, base string, author int, tm int64, text string) ingestResponse {
	t.Helper()
	body, err := json.Marshal(map[string]any{"author": author, "text": text, "timeMillis": tm})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest %q: status %d", text, resp.StatusCode)
	}
	return out
}

func sameUsers(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]int32(nil), a...), append([]int32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// freeAddr grabs an ephemeral loopback port. The tiny close-to-listen race is
// acceptable in a test.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon did not become healthy within 15s")
}
