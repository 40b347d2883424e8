// Package checkpoint implements durable engine snapshots: a versioned,
// checksummed, deterministic binary format (Encoder/Decoder) and a
// crash-safe on-disk file manager (Manager) with monotonically numbered
// checkpoint files and retention.
//
// # Format
//
// A checkpoint is a single self-delimiting byte stream:
//
//	magic   "FHCK"                      4 bytes
//	version uvarint                     format version (currently 2)
//	kind    string                      engine kind, e.g. "firehose.ParallelService"
//	body    engine-specific sections    written by the engine's SnapshotState
//	crc     uint32 little-endian        CRC-32C of every preceding byte
//
// All integers are unsigned or zig-zag varints except fingerprints (fixed
// 8-byte little-endian — SimHash bits are uniformly distributed, so varints
// would expand them) and the trailing checksum. Strings are a uvarint length
// followed by raw bytes. The encoding has no maps, no pointers and no
// iteration-order dependence, so the same engine state always serializes to
// the same bytes — the property the equivalence tests and content-addressed
// retention rely on.
//
// # Safety
//
// Restore paths must survive arbitrary bytes: every length is bounded before
// use, slices grow incrementally (never pre-allocated from an attacker-
// controlled count), and decode errors are sticky — after the first failure
// every read returns zero values and Err reports the cause, so engine decode
// loops terminate without per-call error plumbing. A truncated, bit-flipped
// or malicious stream yields a descriptive error, never a panic or an OOM
// (fuzz-tested).
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Version is the current format version. Decoders reject versions they do
// not know; the version is bumped whenever a section's layout changes.
// Version 2 replaced S_UniBin's per-instance bins in the sharedmultiuser
// section with one ring per author-graph component; a version-1 stream is
// refused here, by name, before any section is read.
const Version = 2

// magic identifies a checkpoint stream.
var magic = [4]byte{'F', 'H', 'C', 'K'}

// MaxStringLen bounds every decoded string (engine kinds, algorithm names,
// section tags). Nothing legitimate comes close; a corrupted length fails
// fast instead of driving a giant allocation.
const MaxStringLen = 4096

// MaxElems bounds every decoded element count (bin entries, users,
// components, workers). It is a plausibility ceiling, not an allocation:
// decoders grow storage incrementally while real bytes arrive.
const MaxElems = 1 << 40

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encoderBlock is the encoder's block size: fields are appended to one
// in-memory block that is checksummed and written when it fills, so a
// multi-megabyte snapshot costs a few dozen hash and write calls instead of
// one of each per field. A pre-encoded span (Raw) joins the block when it
// fits and is otherwise hashed and written as it stands, right after the
// block, so a section an engine keeps in its encoded form costs no copy.
// Snapshots are taken inside the ingest pause, which is why the constant
// matters.
const encoderBlock = 256 << 10

// Encoder writes the checkpoint format to an io.Writer, maintaining the
// running checksum. Errors are sticky: the first write failure is retained
// and every later call is a no-op, so callers check once via Finish (or Err).
type Encoder struct {
	w   io.Writer
	crc uint32
	err error
	// block holds the fields appended since the last flush; its bytes are
	// neither hashed nor written yet.
	block []byte
}

// NewEncoder starts a checkpoint stream on w: it writes the magic, the
// format version and the engine kind, and returns an encoder for the body.
func NewEncoder(w io.Writer, kind string) *Encoder {
	e := &Encoder{w: w, block: make([]byte, 0, encoderBlock)}
	e.block = append(e.block, magic[:]...)
	e.Uvarint(Version)
	e.String(kind)
	return e
}

// room returns the block with space for one fixed-size field, flushing first
// when it is full.
func (e *Encoder) room() []byte {
	if len(e.block) > encoderBlock-binary.MaxVarintLen64 {
		e.flush()
	}
	return e.block
}

// flush folds the block into the running checksum and writes it out.
func (e *Encoder) flush() {
	e.crc = crc32.Update(e.crc, crcTable, e.block)
	e.writeBlock()
}

// writeBlock writes the block's bytes and empties it.
func (e *Encoder) writeBlock() {
	e.write(e.block)
	e.block = e.block[:0]
}

// write writes p unless an earlier write failed.
func (e *Encoder) write(p []byte) {
	if e.err == nil {
		n, err := e.w.Write(p)
		if err == nil && n < len(p) {
			err = io.ErrShortWrite
		}
		if err != nil {
			e.err = fmt.Errorf("checkpoint: write: %w", err)
		}
	}
}

// Uvarint writes an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.block = binary.AppendUvarint(e.room(), v) }

// Varint writes a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.block = binary.AppendVarint(e.room(), v) }

// U64 writes a fixed 8-byte little-endian word (fingerprints, hashes).
func (e *Encoder) U64(v uint64) { e.block = binary.LittleEndian.AppendUint64(e.room(), v) }

// F64 writes a float64 as its fixed 8-byte IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool writes a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uvarint(1)
	} else {
		e.Uvarint(0)
	}
}

// String writes a uvarint length followed by the raw bytes. A string longer
// than the block grows it for one flush.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.block = append(e.block, s...)
}

// Raw writes bytes that are already in the format's encoding, such as a
// section an engine keeps encoded in memory, checksummed like any field. A
// span that does not fit the block's remaining room is written after the
// block without being copied into it. The caller may reuse p on return.
func (e *Encoder) Raw(p []byte) {
	if len(e.block)+len(p) <= encoderBlock {
		e.block = append(e.block, p...)
		return
	}
	e.flush()
	e.crc = crc32.Update(e.crc, crcTable, p)
	e.write(p)
}

// Err returns the first error encountered, if any.
func (e *Encoder) Err() error { return e.err }

// Finish appends the trailing checksum and writes out the last block. The
// encoder must not be used afterwards.
func (e *Encoder) Finish() error {
	e.crc = crc32.Update(e.crc, crcTable, e.block)
	e.block = binary.LittleEndian.AppendUint32(e.block, e.crc)
	e.writeBlock()
	return e.err
}

// Decoder reads the checkpoint format, verifying the running checksum at
// Finish. Like the Encoder its errors are sticky: after the first failure
// every read returns the zero value and Err reports the cause, so decode
// loops can run unguarded and check once at the end. Decode loops that
// allocate per element must still test Err in their loop condition — that is
// what keeps a corrupted element count from looping on zero values.
type Decoder struct {
	r    *bufio.Reader
	crc  hash.Hash32
	kind string
	err  error
}

// NewDecoder opens a checkpoint stream: it validates the magic and format
// version and reads the engine kind (available via Kind). A stream that is
// not a checkpoint fails here with a descriptive error.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r), crc: crc32.New(crcTable)}
	var m [4]byte
	if err := d.read(m[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q: not a checkpoint stream", m)
	}
	if v := d.Uvarint(); d.err != nil {
		return nil, fmt.Errorf("checkpoint: reading version: %w", d.err)
	} else if v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported format version %d (this build reads version %d)", v, Version)
	}
	d.kind = d.String(MaxStringLen)
	if d.err != nil {
		return nil, fmt.Errorf("checkpoint: reading engine kind: %w", d.err)
	}
	return d, nil
}

// Kind returns the engine kind recorded in the stream header.
func (d *Decoder) Kind() string { return d.kind }

// read fills p from the stream, feeding the checksum.
func (d *Decoder) read(p []byte) error {
	if d.err != nil {
		return d.err
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("truncated stream: %w", err)
		}
		d.err = err
		return d.err
	}
	_, _ = d.crc.Write(p)
	return nil
}

// Uvarint reads an unsigned varint; 0 after a sticky error. It peeks at
// most binary.MaxVarintLen64 bytes, decodes them in place, and hashes and
// consumes exactly the bytes the varint spans.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	buf, err := d.r.Peek(binary.MaxVarintLen64)
	v, n := binary.Uvarint(buf)
	switch {
	case n > 0:
	case n < 0 || len(buf) == binary.MaxVarintLen64:
		// A tenth byte above 1, or ten continuation bytes: either way ten
		// bytes, as many as binary.ReadUvarint consumed before failing.
		n = binary.MaxVarintLen64
		d.err = errors.New("checkpoint: bad varint: binary: varint overflows a 64-bit integer")
	case errors.Is(err, io.EOF):
		n = len(buf)
		d.err = fmt.Errorf("truncated stream: %w", io.EOF)
	default:
		n = len(buf)
		d.err = err
	}
	_, _ = d.crc.Write(buf[:n])
	_, _ = d.r.Discard(n)
	if d.err != nil {
		return 0
	}
	return v
}

// Varint reads a zig-zag signed varint; 0 after a sticky error.
func (d *Decoder) Varint() int64 {
	ux := d.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// U64 reads a fixed 8-byte little-endian word; 0 after a sticky error.
func (d *Decoder) U64() uint64 {
	var buf [8]byte
	if d.read(buf[:]) != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// F64 reads a fixed 8-byte IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a boolean; any value other than 0 or 1 is a decode error.
func (d *Decoder) Bool() bool {
	switch v := d.Uvarint(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("bad boolean byte %d", v)
		return false
	}
}

// String reads a length-prefixed string, rejecting lengths above max.
func (d *Decoder) String(max int) string {
	n := d.Len("string", max)
	if d.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if d.read(buf) != nil {
		return ""
	}
	return string(buf)
}

// Len reads an element count and validates it against max (and MaxElems),
// failing the decode with a descriptive error on an implausible value. The
// bound is a sanity check, not memory safety — callers must still grow
// storage incrementally and test Err inside allocation loops.
func (d *Decoder) Len(what string, max int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if m := uint64(max); v > m || v > MaxElems {
		d.Failf("%s count %d exceeds limit %d", what, v, max)
		return 0
	}
	return int(v)
}

// Expect reads a string and fails the decode unless it equals want — the
// section-tag validation engines use to catch reader/writer drift.
func (d *Decoder) Expect(want string) {
	got := d.String(MaxStringLen)
	if d.err == nil && got != want {
		d.Failf("section tag mismatch: stream has %q, engine expects %q", got, want)
	}
}

// Failf injects a validation failure into the decoder (engines use it for
// semantic checks: non-monotone timestamps, out-of-range authors, structural
// mismatches). The first failure wins and sticks.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: %s", fmt.Sprintf(format, args...))
	}
}

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Finish reads the trailing checksum and verifies it against the bytes
// consumed. It fails if any earlier read failed, if the checksum mismatches
// (bit flips), or if unread bytes remain (a stream longer than its body —
// the body must be self-delimiting).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	want := d.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(d.r, tail[:]); err != nil {
		return fmt.Errorf("checkpoint: truncated stream: missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return fmt.Errorf("checkpoint: checksum mismatch (stream %08x, computed %08x): snapshot is corrupted", got, want)
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("checkpoint: %d+ trailing bytes after checksum", d.r.Buffered()+1)
	}
	return nil
}
