package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// snapshotBytes returns a snapshot func writing a tiny valid stream carrying
// the given payload.
func snapshotBytes(payload string) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := NewEncoder(w, "test.File")
		enc.String(payload)
		return enc.Finish()
	}
}

func readPayload(r io.Reader) (string, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return "", err
	}
	s := dec.String(MaxStringLen)
	return s, dec.Finish()
}

func TestWriteSequencesAndList(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		f, err := Write(dir, snapshotBytes(fmt.Sprintf("state-%d", i)))
		if err != nil {
			t.Fatalf("Write #%d: %v", i, err)
		}
		if f.Seq != uint64(i) {
			t.Fatalf("Write #%d: seq = %d", i, f.Seq)
		}
		if filepath.Base(f.Path) != fmt.Sprintf("checkpoint-%d.fhc", i) {
			t.Fatalf("Write #%d: path = %s", i, f.Path)
		}
	}
	files, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 || files[0].Seq != 1 || files[2].Seq != 3 {
		t.Fatalf("List = %+v", files)
	}
}

// TestListEmptyAndMissingDir: an empty and a missing directory both list no
// checkpoints and no error, so boot-time resume probes unconditionally.
func TestListEmptyAndMissingDir(t *testing.T) {
	if files, err := List(t.TempDir()); len(files) != 0 || err != nil {
		t.Fatalf("empty dir: files=%v err=%v", files, err)
	}
	if files, err := List(filepath.Join(t.TempDir(), "nope")); len(files) != 0 || err != nil {
		t.Fatalf("missing dir: files=%v err=%v", files, err)
	}
}

func TestTornTempFilesIgnoredAndFailedSnapshotLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	// A leftover torn write must not appear as a checkpoint.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := Write(dir, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Write with failing snapshot: %v", err)
	}
	files, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("failed snapshot left files: %+v", files)
	}
}

func TestManagerRetention(t *testing.T) {
	dir := t.TempDir()
	n := 0
	mgr, err := NewManager(dir, 2, func(w io.Writer) error {
		n++
		return snapshotBytes(fmt.Sprintf("state-%d", n))(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := mgr.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint #%d: %v", i+1, err)
		}
	}
	files, err := mgr.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].Seq != 4 || files[1].Seq != 5 {
		t.Fatalf("retention kept %+v", files)
	}
	// Sequence numbering continues past pruned files.
	f, err := mgr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 6 {
		t.Fatalf("seq after prune = %d, want 6", f.Seq)
	}
}

// TestManagerOnCheckpointHook: the hook fires after every durable write with
// the written File — readable from disk at hook time, and before the prune
// (the connector layer acks input cursors in it; an ack against a file the
// prune already removed would be premature).
func TestManagerOnCheckpointHook(t *testing.T) {
	dir := t.TempDir()
	n := 0
	mgr, err := NewManager(dir, 1, func(w io.Writer) error {
		n++
		if n == 3 {
			return errors.New("snapshot exploded")
		}
		return snapshotBytes(fmt.Sprintf("state-%d", n))(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	var hooked []File
	mgr.SetOnCheckpoint(func(f File) {
		// The write is durable here: the named file must decode.
		fh, err := os.Open(f.Path)
		if err != nil {
			t.Errorf("hook for seq %d: file not readable: %v", f.Seq, err)
			return
		}
		payload, perr := readPayload(fh)
		fh.Close()
		if perr != nil {
			t.Errorf("hook for seq %d: %v", f.Seq, perr)
		}
		if want := fmt.Sprintf("state-%d", f.Seq); payload != want {
			t.Errorf("hook for seq %d read %q, want %q", f.Seq, payload, want)
		}
		// Pre-prune: with retain 1 the previous checkpoint is still on disk
		// while the hook for its successor runs.
		if f.Seq == 2 {
			if _, err := os.Stat(filepath.Join(dir, "checkpoint-1.fhc")); err != nil {
				t.Errorf("hook for seq 2 ran after the prune: %v", err)
			}
		}
		hooked = append(hooked, f)
	})

	for i := 0; i < 2; i++ {
		if _, err := mgr.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint #%d: %v", i+1, err)
		}
	}
	if len(hooked) != 2 || hooked[0].Seq != 1 || hooked[1].Seq != 2 {
		t.Fatalf("hook calls = %+v, want seqs 1 and 2", hooked)
	}
	// A failed snapshot writes nothing durable, so the hook must not fire.
	if _, err := mgr.Checkpoint(); err == nil {
		t.Fatal("Checkpoint with failing snapshot succeeded")
	}
	if len(hooked) != 2 {
		t.Fatalf("hook fired for a failed checkpoint: %+v", hooked)
	}
}

func TestWrittenFileIsValidStream(t *testing.T) {
	dir := t.TempDir()
	f, err := Write(dir, snapshotBytes("payload"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readPayload(bytes.NewReader(raw))
	if err != nil || got != "payload" {
		t.Fatalf("payload=%q err=%v", got, err)
	}
}
