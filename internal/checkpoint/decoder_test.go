package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// refDecoder is the byte-at-a-time decoder the Decoder's varint path
// replaced: every varint byte is one io.ReadFull and one checksum update,
// through binary.ReadUvarint / binary.ReadVarint. It keeps the Decoder's
// sticky errors and messages, so FuzzDecoder can hold the two to the same
// values, the same failures and the same checksum.
type refDecoder struct {
	r   *bytes.Reader
	crc uint32
	err error
}

func (d *refDecoder) read(p []byte) error {
	if d.err != nil {
		return d.err
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = fmt.Errorf("truncated stream: %w", err) // a bytes.Reader fails only at its end
		return d.err
	}
	d.crc = crc32.Update(d.crc, crcTable, p)
	return nil
}

func (d *refDecoder) ReadByte() (byte, error) {
	var one [1]byte
	err := d.read(one[:])
	return one[0], err
}

func (d *refDecoder) varint(v uint64, err error) uint64 {
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("checkpoint: bad varint: %w", err)
	}
	if d.err != nil {
		return 0
	}
	return v
}

func (d *refDecoder) Uvarint() uint64 { return d.varint(binary.ReadUvarint(d)) }

func (d *refDecoder) Varint() int64 {
	v, err := binary.ReadVarint(d)
	return int64(d.varint(uint64(v), err))
}

func (d *refDecoder) U64() uint64 {
	var buf [8]byte
	if d.read(buf[:]) != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (d *refDecoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: %s", fmt.Sprintf(format, args...))
	}
}

func (d *refDecoder) Bool() bool {
	switch v := d.Uvarint(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.failf("bad boolean byte %d", v)
		return false
	}
}

func (d *refDecoder) Len(what string, max int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if m := uint64(max); v > m || v > MaxElems {
		d.failf("%s count %d exceeds limit %d", what, v, max)
		return 0
	}
	return int(v)
}

func (d *refDecoder) String(max int) string {
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

// finishes reports whether the reference would accept the stream's end: no
// earlier failure, and exactly the checksum of the bytes consumed left.
func (d *refDecoder) finishes() bool {
	rest, _ := io.ReadAll(d.r)
	return d.err == nil && len(rest) == 4 && binary.LittleEndian.Uint32(rest) == d.crc
}

// primitives is what FuzzDecoder reads through, on both decoders.
type primitives interface {
	Uvarint() uint64
	Varint() int64
	U64() uint64
	Bool() bool
	String(max int) string
	Len(what string, max int) int
}

// decodeSteps is the fixed read sequence FuzzDecoder runs on both decoders,
// twice over; each step returns what it read.
var decodeSteps = []struct {
	name string
	read func(primitives) any
}{
	{"Uvarint", func(d primitives) any { return d.Uvarint() }},
	{"Varint", func(d primitives) any { return d.Varint() }},
	{"U64", func(d primitives) any { return d.U64() }},
	{"Bool", func(d primitives) any { return d.Bool() }},
	{"String", func(d primitives) any { return d.String(16) }},
	{"Len", func(d primitives) any { return d.Len("elem", 1<<20) }},
}

// FuzzDecoder: after a valid header, the Decoder reads any bytes exactly as
// the byte-at-a-time reference does — the same values, the first failure at
// the same step with the same message, and a Finish that succeeds exactly
// when the trailer is the checksum of the bytes consumed.
func FuzzDecoder(f *testing.F) {
	var header []byte
	header = append(header, magic[:]...)
	header = binary.AppendUvarint(header, Version)
	header = binary.AppendUvarint(header, uint64(len("fuzz")))
	header = append(header, "fuzz"...)

	var valid bytes.Buffer
	enc := NewEncoder(&valid, "fuzz")
	for _, v := range []uint64{0, math.MaxUint64} {
		enc.Uvarint(v)
		enc.Varint(int64(v))
		enc.U64(v)
		enc.Bool(v == 0)
		enc.String("hello")
		enc.Uvarint(v >> 44)
	}
	if err := enc.Finish(); err != nil {
		f.Fatal(err)
	}
	body := valid.Bytes()[len(header):]
	f.Add(body)
	f.Add(body[:len(body)-1])
	f.Add(body[:len(body)-5])
	f.Add(bytes.Repeat([]byte{0xff}, 10))
	f.Add(append(bytes.Repeat([]byte{0x80}, 9), 0x02))
	f.Add(append(bytes.Repeat([]byte{0x80}, 9), 0x01))
	f.Add([]byte{0x80})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		data := append(header[:len(header):len(header)], body...)
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("valid header refused: %v", err)
		}
		ref := &refDecoder{r: bytes.NewReader(data)}
		ref.read(make([]byte, len(magic)))
		ref.Uvarint()
		ref.String(MaxStringLen)
		if ref.err != nil {
			t.Fatalf("reference refused the header: %v", ref.err)
		}
		for round := 0; round < 2; round++ {
			for _, step := range decodeSteps {
				got, want := step.read(dec), step.read(ref)
				if got != want {
					t.Fatalf("round %d %s: decoded %v, reference %v", round, step.name, got, want)
				}
				if fmt.Sprint(dec.Err()) != fmt.Sprint(ref.err) {
					t.Fatalf("round %d %s: error %v, reference %v", round, step.name, dec.Err(), ref.err)
				}
			}
		}
		if ok := dec.Finish() == nil; ok != ref.finishes() {
			t.Fatalf("Finish succeeded = %v, reference %v", ok, !ok)
		}
	})
}
