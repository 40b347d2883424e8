package checkpoint

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// encodeSample writes one stream exercising every primitive.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, "test.Kind")
	enc.Uvarint(0)
	enc.Uvarint(1<<63 + 7)
	enc.Varint(-1)
	enc.Varint(math.MaxInt64)
	enc.U64(0xdeadbeefcafef00d)
	enc.F64(0.7)
	enc.Bool(true)
	enc.Bool(false)
	enc.String("hello, 火")
	enc.String("")
	if err := enc.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := encodeSample(t)
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if dec.Kind() != "test.Kind" {
		t.Fatalf("kind = %q", dec.Kind())
	}
	if v := dec.Uvarint(); v != 0 {
		t.Errorf("uvarint#1 = %d", v)
	}
	if v := dec.Uvarint(); v != 1<<63+7 {
		t.Errorf("uvarint#2 = %d", v)
	}
	if v := dec.Varint(); v != -1 {
		t.Errorf("varint#1 = %d", v)
	}
	if v := dec.Varint(); v != math.MaxInt64 {
		t.Errorf("varint#2 = %d", v)
	}
	if v := dec.U64(); v != 0xdeadbeefcafef00d {
		t.Errorf("u64 = %x", v)
	}
	if v := dec.F64(); v != 0.7 {
		t.Errorf("f64 = %v", v)
	}
	if !dec.Bool() || dec.Bool() {
		t.Errorf("bools decoded wrong")
	}
	if v := dec.String(MaxStringLen); v != "hello, 火" {
		t.Errorf("string = %q", v)
	}
	if v := dec.String(MaxStringLen); v != "" {
		t.Errorf("empty string = %q", v)
	}
	if err := dec.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	a, b := encodeSample(t), encodeSample(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same state encoded to different bytes")
	}
}

func TestTruncationAlwaysErrors(t *testing.T) {
	data := encodeSample(t)
	for n := 0; n < len(data); n++ {
		if err := drain(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(data))
		}
	}
}

func TestBitFlipAlwaysErrors(t *testing.T) {
	data := encodeSample(t)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[i] ^= 1 << bit
			if err := drain(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded cleanly", i, bit)
			}
		}
	}
}

// drain decodes the sample layout from arbitrary bytes, returning the first
// error (decode failure, checksum mismatch, or a surviving value mismatch —
// a flip that alters a decoded value without tripping a check would be a
// format bug, surfaced here as an error so the flip tests catch it).
func drain(data []byte) error {
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		return err
	}
	dec.Uvarint()
	dec.Uvarint()
	dec.Varint()
	dec.Varint()
	dec.U64()
	dec.F64()
	dec.Bool()
	dec.Bool()
	dec.String(MaxStringLen)
	dec.String(MaxStringLen)
	return dec.Finish()
}

func TestTrailingGarbageErrors(t *testing.T) {
	data := append(encodeSample(t), 0x00)
	if err := drain(data); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

func TestLenBounds(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, "k")
	enc.Uvarint(1 << 50)
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := dec.Len("things", 100); n != 0 || dec.Err() == nil {
		t.Fatalf("Len over max: n=%d err=%v", n, dec.Err())
	}
}

func TestExpectTagMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, "k")
	enc.String("unibin")
	if err := enc.Finish(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dec.Expect("cliquebin")
	if dec.Err() == nil || !strings.Contains(dec.Err().Error(), "section tag mismatch") {
		t.Fatalf("err = %v", dec.Err())
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewDecoder(strings.NewReader("not a checkpoint at all")); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(99) // version 99
	if _, err := NewDecoder(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err = %v", err)
	}
}

// TestVersionOneRefused: a stream written before the version-2 layout change
// is refused at the header, naming its version, instead of failing somewhere
// inside an engine section whose layout moved.
func TestVersionOneRefused(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(1)
	buf.WriteString("\x0ehttpapi.Server")
	_, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("version-1 stream: err = %v", err)
	}
}

func TestStickyErrorReturnsZeros(t *testing.T) {
	dec, err := NewDecoder(bytes.NewReader(encodeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	dec.Failf("injected")
	if dec.Uvarint() != 0 || dec.Varint() != 0 || dec.U64() != 0 || dec.String(10) != "" || dec.Bool() {
		t.Fatal("reads after a sticky error must return zero values")
	}
	if err := dec.Finish(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Finish = %v, want injected error", err)
	}
}

// failWriter fails after n bytes, exercising encoder error stickiness.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestEncoderPropagatesWriteErrors(t *testing.T) {
	enc := NewEncoder(&failWriter{n: 2}, "kind")
	for i := 0; i < 10_000; i++ {
		enc.U64(uint64(i))
	}
	if err := enc.Finish(); err == nil {
		t.Fatal("write failure not propagated")
	}
}
