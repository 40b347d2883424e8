package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the durability layer: checkpoints live in one directory as
// monotonically numbered files written with the classic crash-safe dance —
// write to a temp file, fsync it, atomically rename into place, fsync the
// directory. A crash at any point leaves either the previous checkpoint set
// or the previous set plus one complete new file; a torn write can only ever
// be a checkpoint-*.tmp leftover, which the scan ignores and SweepTemp
// removes at boot.

// Ext is the checkpoint file extension.
const Ext = ".fhc"

// fileName formats the canonical file name for a sequence number.
func fileName(seq uint64) string { return fmt.Sprintf("checkpoint-%d%s", seq, Ext) }

// tmpPattern names the temp files publish writes before its rename.
const tmpPattern = "checkpoint-*.tmp"

// fileRe matches canonical checkpoint names, capturing the sequence number.
var fileRe = regexp.MustCompile(`^checkpoint-(\d{1,19})\.fhc$`)

// File describes one on-disk checkpoint.
type File struct {
	// Seq is the checkpoint's monotone sequence number (later > earlier).
	Seq uint64
	// Path is the absolute or dir-relative path of the file.
	Path string
	// Size is the file size in bytes.
	Size int64
	// ModTime is the file's modification time.
	ModTime time.Time
}

// List returns the checkpoints in dir, sorted by ascending sequence number.
// A missing directory is an empty list, not an error, so boot-time restore
// probes are unconditional. Files that do not match the canonical name
// (including *.tmp leftovers from interrupted writes) are ignored.
func List(dir string) ([]File, error) { return list(dir, fileRe) }

// list returns the files in dir whose names re matches, sorted by the
// number re captures (File.Seq). It backs both name families: the
// sequential set and the watermark-tagged shard checkpoints.
func list(dir string, re *regexp.Regexp) ([]File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: listing %s: %w", dir, err)
	}
	var out []File
	for _, ent := range entries {
		m := re.FindStringSubmatch(ent.Name())
		if m == nil || ent.IsDir() {
			continue
		}
		seq, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue // 20-digit overflow; not ours
		}
		info, err := ent.Info()
		if err != nil {
			continue // raced a concurrent prune
		}
		out = append(out, File{Seq: seq, Path: filepath.Join(dir, ent.Name()), Size: info.Size(), ModTime: info.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Latest returns the newest checkpoint in dir; ok=false when there is none.
func Latest(dir string) (f File, ok bool, err error) {
	files, err := List(dir)
	if err != nil || len(files) == 0 {
		return File{}, false, err
	}
	return files[len(files)-1], true, nil
}

// Write durably writes one checkpoint to dir: snapshot streams the state into
// a temp file, which is fsynced, renamed to checkpoint-<seq>.fhc (seq =
// newest existing + 1) and made durable by an fsync of the directory. On any
// error the temp file is removed and the checkpoint set is untouched.
func Write(dir string, snapshot func(w io.Writer) error) (File, error) {
	latest, ok, err := Latest(dir)
	if err != nil {
		return File{}, err
	}
	seq := uint64(1)
	if ok {
		seq = latest.Seq + 1
	}
	return publish(dir, fileName(seq), seq, snapshot)
}

// publish runs the crash-safe write dance for one checkpoint file: stream
// into a temp file, fsync it, rename to name (atomically replacing any
// previous file of that name), fsync the directory. Shared by the sequential
// checkpoint set and the watermark-tagged shard checkpoints.
func publish(dir, name string, seq uint64, snapshot func(w io.Writer) error) (File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return File{}, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return File{}, fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	cleanup := func(err error) (File, error) {
		_ = tmp.Close()           // best effort; the first error wins
		_ = os.Remove(tmp.Name()) // a leftover .tmp would be ignored anyway
		return File{}, err
	}
	if err := snapshot(tmp); err != nil {
		return cleanup(fmt.Errorf("checkpoint: snapshot: %w", err))
	}
	// fsync before rename: the rename must never publish a file whose bytes
	// are still only in the page cache.
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("checkpoint: fsync %s: %w", tmp.Name(), err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err))
	}
	path := filepath.Join(dir, name)
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return File{}, fmt.Errorf("checkpoint: publishing %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return File{}, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return File{}, fmt.Errorf("checkpoint: stat %s: %w", path, err)
	}
	return File{Seq: seq, Path: path, Size: info.Size(), ModTime: info.ModTime()}, nil
}

// SweepTemp removes the temp files of checkpoint writes that never reached
// their rename, which a process killed mid-write leaves behind in dir. Call
// it once at boot, before anything writes to dir; a missing directory has
// nothing to sweep.
func SweepTemp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("checkpoint: listing %s: %w", dir, err)
	}
	for _, ent := range entries {
		if ok, _ := filepath.Match(tmpPattern, ent.Name()); !ok || ent.IsDir() {
			continue
		}
		if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: removing temp file: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir for fsync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: fsync dir %s: %w", dir, err)
	}
	return nil
}

// Prune deletes the oldest checkpoints beyond keep and returns the ones
// removed. keep <= 0 keeps everything.
func Prune(dir string, keep int) ([]File, error) { return prune(dir, fileRe, keep) }

// prune deletes the oldest files of list(dir, re) beyond keep and returns
// the ones removed. keep <= 0 keeps everything.
func prune(dir string, re *regexp.Regexp, keep int) ([]File, error) {
	if keep <= 0 {
		return nil, nil
	}
	files, err := list(dir, re)
	if err != nil || len(files) <= keep {
		return nil, err
	}
	victims := files[:len(files)-keep]
	for _, f := range victims {
		if err := os.Remove(f.Path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("checkpoint: pruning %s: %w", f.Path, err)
		}
	}
	return victims, nil
}

// Manager serializes periodic and on-demand checkpoints of one snapshot
// target into one directory, applying a retention bound after every write.
// It is safe for concurrent use (the admin endpoint and the interval ticker
// share one Manager).
type Manager struct {
	dir    string
	retain int
	target func(w io.Writer) error

	// mu serializes Checkpoint calls so two triggers cannot race the same
	// sequence number or interleave prunes.
	// mu guards: onCheckpoint
	mu           sync.Mutex
	onCheckpoint func(File)
}

// SetOnCheckpoint installs a hook invoked after every durable checkpoint
// write (post-rename, post-fsync — the state the File describes survives a
// crash), still inside the manager's serialization. The connector layer uses
// it to advance input ack cursors to the checkpointed watermark. The hook
// must not call Checkpoint (it would deadlock); set it before the first
// checkpoint.
func (m *Manager) SetOnCheckpoint(fn func(File)) {
	m.mu.Lock()
	m.onCheckpoint = fn
	m.mu.Unlock()
}

// NewManager builds a manager writing checkpoints of target into dir,
// keeping the newest retain files (retain <= 0 keeps all). The directory is
// created eagerly so misconfiguration fails at startup, not at the first
// checkpoint.
func NewManager(dir string, retain int, target func(w io.Writer) error) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if target == nil {
		return nil, fmt.Errorf("checkpoint: nil snapshot target")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	return &Manager{dir: dir, retain: retain, target: target}, nil
}

// Dir returns the checkpoint directory.
func (m *Manager) Dir() string { return m.dir }

// Checkpoint writes one checkpoint now and applies retention. Concurrent
// calls serialize; each produces its own file.
func (m *Manager) Checkpoint() (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := Write(m.dir, m.target)
	if err != nil {
		return File{}, err
	}
	if m.onCheckpoint != nil {
		// The write is durable at this point; acks derived from it are safe
		// even if the prune below fails.
		m.onCheckpoint(f)
	}
	if _, err := Prune(m.dir, m.retain); err != nil {
		// The new checkpoint is durable; a failed prune only leaks old files.
		return f, err
	}
	return f, nil
}

// List returns the retained checkpoints, oldest first.
func (m *Manager) List() ([]File, error) { return List(m.dir) }
