package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// fieldEncoder is what both encoders below offer; the fixture drives them
// through it.
type fieldEncoder interface {
	Uvarint(uint64)
	Varint(int64)
	U64(uint64)
	String(string)
	Finish() error
}

// legacyEncoder is the encoder as it was before block buffering: a default
// bufio.Writer and one checksum update per field. It is kept here as the
// format's reference — the block encoder must emit the same bytes.
type legacyEncoder struct {
	w   *bufio.Writer
	crc hash.Hash32
	buf [binary.MaxVarintLen64]byte
}

func newLegacyEncoder(w io.Writer, kind string) *legacyEncoder {
	e := &legacyEncoder{w: bufio.NewWriter(w), crc: crc32.New(crcTable)}
	e.write(magic[:])
	e.Uvarint(Version)
	e.String(kind)
	return e
}

func (e *legacyEncoder) write(p []byte) {
	_, _ = e.w.Write(p) // bytes.Buffer underneath: cannot fail
	_, _ = e.crc.Write(p)
}
func (e *legacyEncoder) Uvarint(v uint64) { e.write(e.buf[:binary.PutUvarint(e.buf[:], v)]) }
func (e *legacyEncoder) Varint(v int64)   { e.write(e.buf[:binary.PutVarint(e.buf[:], v)]) }
func (e *legacyEncoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.write(e.buf[:8])
}
func (e *legacyEncoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.write([]byte(s))
}
func (e *legacyEncoder) Finish() error {
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], e.crc.Sum32())
	_, _ = e.w.Write(tail[:])
	return e.w.Flush()
}

// writeFixture writes a bin-shaped state — (time, fingerprint, author)
// triples between section tags — large enough to cross several block
// boundaries, plus one string longer than a block.
func writeFixture(e fieldEncoder) error {
	rng := rand.New(rand.NewSource(3))
	for section := 0; section < 4; section++ {
		e.String("unibin")
		n := 20000 + rng.Intn(20000)
		e.Uvarint(uint64(n))
		for i := 0; i < n; i++ {
			e.Varint(rng.Int63() - 1<<62)
			e.U64(rng.Uint64())
			e.Varint(int64(rng.Int31n(5000)))
		}
	}
	e.String(strings.Repeat("long string ", encoderBlock/8))
	e.Uvarint(7)
	return e.Finish()
}

func TestBlockEncoderMatchesLegacyBytes(t *testing.T) {
	var legacy, block bytes.Buffer
	if err := writeFixture(newLegacyEncoder(&legacy, "test.Kind")); err != nil {
		t.Fatal(err)
	}
	if err := writeFixture(NewEncoder(&block, "test.Kind")); err != nil {
		t.Fatal(err)
	}
	if legacy.Len() < 3*encoderBlock {
		t.Fatalf("fixture is %d bytes; it must span several %d-byte blocks", legacy.Len(), encoderBlock)
	}
	if !bytes.Equal(legacy.Bytes(), block.Bytes()) {
		t.Fatalf("block encoder wrote %d bytes that differ from the legacy encoder's %d", block.Len(), legacy.Len())
	}
}

// countingWriter counts Write calls and can fail from the nth on.
type countingWriter struct {
	writes, failFrom int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failFrom > 0 && w.writes >= w.failFrom {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestBlockEncoderWritesPerBlock(t *testing.T) {
	var w countingWriter
	var size bytes.Buffer
	if err := writeFixture(NewEncoder(io.MultiWriter(&w, &size), "test.Kind")); err != nil {
		t.Fatal(err)
	}
	if max := size.Len()/encoderBlock + 3; w.writes > max {
		t.Fatalf("%d writes for %d bytes; want at most one per %d-byte block (%d)", w.writes, size.Len(), encoderBlock, max)
	}

	// A failed block write is sticky and surfaces from Finish.
	failing := &countingWriter{failFrom: 2}
	enc := NewEncoder(failing, "test.Kind")
	err := writeFixture(enc)
	if err == nil || !strings.Contains(err.Error(), "disk full") || enc.Err() == nil {
		t.Fatalf("Finish after a failed write: %v (Err %v)", err, enc.Err())
	}
	if failing.writes != 2 {
		t.Fatalf("%d writes after the failure, want none", failing.writes-2)
	}
}

// rawEncoder encodes the fixture's fields itself and hands them to Raw in
// spans of assorted sizes, some far smaller and some larger than a block,
// so both of Raw's paths run between ordinary fields.
type rawEncoder struct {
	*Encoder
	buf  []byte
	rng  *rand.Rand
	span int
}

func (e *rawEncoder) emit() {
	if len(e.buf) < e.span {
		return
	}
	e.Raw(e.buf)
	e.buf = e.buf[:0]
	e.span = []int{1, 100, encoderBlock / 3, 2 * encoderBlock}[e.rng.Intn(4)]
}

func (e *rawEncoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v); e.emit() }
func (e *rawEncoder) Varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v); e.emit() }
func (e *rawEncoder) U64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v); e.emit() }
func (e *rawEncoder) String(s string) {
	e.buf = append(binary.AppendUvarint(e.buf, uint64(len(s))), s...)
	e.emit()
}
func (e *rawEncoder) Finish() error {
	e.Raw(e.buf)
	return e.Encoder.Finish()
}

func TestRawMatchesLegacyBytes(t *testing.T) {
	var legacy, raw bytes.Buffer
	if err := writeFixture(newLegacyEncoder(&legacy, "test.Kind")); err != nil {
		t.Fatal(err)
	}
	if err := writeFixture(&rawEncoder{Encoder: NewEncoder(&raw, "test.Kind"), rng: rand.New(rand.NewSource(4)), span: 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), raw.Bytes()) {
		t.Fatalf("Raw spans wrote %d bytes that differ from the legacy encoder's %d", raw.Len(), legacy.Len())
	}

	// A failed write of a span larger than the block is sticky too.
	failing := &countingWriter{failFrom: 2}
	enc := NewEncoder(failing, "test.Kind")
	enc.Raw(make([]byte, 2*encoderBlock))
	enc.Uvarint(1)
	if err := enc.Finish(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Finish after a failed Raw write: %v", err)
	}
	if failing.writes != 2 {
		t.Fatalf("%d writes after the failure, want none", failing.writes-2)
	}
}
