package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/checkpoint"
	"firehose/internal/connector"
	"firehose/internal/core"
	"firehose/internal/httpapi"
	"firehose/internal/stream"
)

// resumeBuild is resume's build function in these tests: a fresh
// two-worker server over one small graph.
func resumeBuild() (*httpapi.Server, error) {
	g := authorsim.NewGraph(4, []authorsim.SimPair{{A: 0, B: 1}, {A: 2, B: 3}}, 0.7)
	th := core.Thresholds{LambdaC: 4, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}
	pe, err := stream.NewParallelMultiEngine(core.AlgNeighborBin, g, [][]int32{{0, 1}, {2, 3}, {0, 3}}, th, 2)
	if err != nil {
		return nil, err
	}
	return httpapi.NewParallel(pe), nil
}

// connectFile opens a file input over path, resuming at its newest acked
// cursor as the daemon's Connect does.
func connectFile(t *testing.T, path string) *connector.FileInput {
	t.Helper()
	in, err := connector.NewFileInput(path, connector.FileInputOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close() })
	return in
}

// firstLife runs a daemon's first life on a file of six posts, "post 1" to
// "post 6" with ids 1 to 6: it writes a checkpoint into dir after every
// second post (watermarks 2, 4 and 6) and acks the input at the watermarks
// in acked, as a checkpoint hook whose ack reached the sidecar would.
func firstLife(t *testing.T, dir string, acked ...uint64) (path string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "posts.ndjson")
	posts := make([]*core.Post, 6)
	for i := range posts {
		posts[i] = &core.Post{Author: int32(i % 4), Time: int64(1000 * (i + 1)), Text: fmt.Sprintf("post %d", i+1)}
	}
	appendLines(t, path, posts)
	api, err := resumeBuild()
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	in := connectFile(t, path)
	for i := range posts {
		msg, err := in.Read(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if msg.Seq, _, err = api.IngestPost(msg.Author, msg.TimeMillis, msg.Text); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			continue
		}
		if _, err := checkpoint.Write(dir, api.Snapshot); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(acked, msg.Seq) {
			if err := in.Ack(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	return path
}

// TestResumeRule drives the daemon's boot-time resume rule over real servers,
// a real file input with its ack sidecar, and checkpoints on disk: which
// checkpoint is kept, where the input resumes, and that every engine built
// for a discarded attempt is closed.
func TestResumeRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		noDir  bool // run without a checkpoint directory
		http   bool // a non-durable input (the daemon passes nil for http)
		worker bool // a shard worker
		acked  []uint64
		retain int    // prune the first life's checkpoints to this many
		want   uint64 // the kept watermark; the input resumes at post want+1
	}{
		{name: "no directory", noDir: true, acked: []uint64{2, 4}, want: 0},
		{name: "non-durable input", http: true, want: 6},
		{name: "newest checkpoint has no cursor", acked: []uint64{2, 4}, want: 4},
		{name: "no cursor anywhere", acked: []uint64{2}, retain: 2, want: 0},
		{name: "shard worker", worker: true, http: true, want: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := firstLife(t, dir, tc.acked...)
			if _, err := checkpoint.Prune(dir, tc.retain); err != nil {
				t.Fatal(err)
			}
			var in connector.Input
			var fileIn *connector.FileInput
			if !tc.http {
				fileIn = connectFile(t, path)
				in = fileIn
			}
			if tc.noDir {
				dir = ""
			}

			baseline := runtime.NumGoroutine()
			api, err := resume(dir, tc.worker, in, resumeBuild)
			if err != nil {
				t.Fatal(err)
			}
			if got := api.SnapshotWatermark(); got != tc.want {
				t.Errorf("kept watermark %d, want %d", got, tc.want)
			}
			if fileIn != nil {
				msg, err := fileIn.Read(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("post %d", tc.want+1); msg.Text != want {
					t.Errorf("input resumed at %q, want %q", msg.Text, want)
				}
				if id, _, err := api.IngestPost(msg.Author, msg.TimeMillis, msg.Text); err != nil || id != tc.want+1 {
					t.Errorf("next post: id %d, err %v; want id %d", id, err, tc.want+1)
				}
			}

			// Closing the kept server must return the goroutine count to
			// its baseline: a discarded attempt's parked workers would not.
			api.Close()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after closing the kept server, %d before resume: a discarded attempt leaked its engine", n, baseline)
			}
		})
	}
}
