package ingeststream

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzStreamFrame: arbitrary bytes never panic the frame reader or either
// payload decoder and never make them allocate past the frame bound, and
// whatever encodes decodes back to itself — shard-hop and client-hop
// (id 0, prev 0) requests, the id-carrying OK reply and the refusal.
func FuzzStreamFrame(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), int32(0), int64(0), "", uint16(0))
	f.Add(appendRequest(nil, &Request{ID: 7, Prev: 5, Author: 3, TimeMillis: 1000, Text: "a post"}), uint64(7), uint64(5), int32(3), int64(1000), "a post", uint16(409))
	f.Add(appendOKReply(nil, 42, []int32{0, 1, 4999, -1}), ^uint64(0), uint64(1)<<63, int32(-1<<31), int64(-1<<63), "\x00\xff", uint16(999))
	f.Add(appendErrReply(nil, 503, []byte(`{"error":"x","code":"queue_full"}`)), uint64(1), uint64(0), int32(1<<31-1), int64(1<<63-1), strings.Repeat("é", 300), uint16(100))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}, uint64(0), uint64(0), int32(0), int64(0), "", uint16(0))
	f.Add([]byte{0, 0, 0, 3, replyOK, 0x80, 0x80}, uint64(0), uint64(0), int32(0), int64(0), "", uint16(0))
	f.Add(appendRequest(nil, &Request{Author: 12, TimeMillis: 1458000000000, Text: "a client post"}), uint64(0), uint64(0), int32(12), int64(1458000000000), "a client post", uint16(400))
	f.Add(appendOKReply(nil, 1, nil), uint64(0), uint64(0), int32(0), int64(0), "", uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, id, prev uint64, author int32, tm int64, text string, status uint16) {
		// Arbitrary bytes, as a stream of frames.
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			payload, err := readFrame(br, &buf)
			if cap(buf) > MaxFrame {
				t.Fatalf("readFrame grew its buffer to %d bytes, past the %d-byte bound", cap(buf), MaxFrame)
			}
			if err != nil {
				break
			}
			if req, err := decodeRequest(payload); err == nil {
				again, err := decodeRequest(appendRequest(nil, &req)[frameHeader:])
				if err != nil || again != req {
					t.Fatalf("request %+v re-decodes as %+v, %v", req, again, err)
				}
			}
			if rep, err := decodeReply(payload); err == nil && cap(rep.Users) > len(payload) {
				t.Fatalf("decodeReply sized %d users for a %d-byte payload", cap(rep.Users), len(payload))
			}
		}

		// Structured values, round trip through the frame reader: the
		// shard-hop request, the same post on the client hop, an OK reply
		// and a refusal.
		req := Request{ID: id, Prev: prev, Author: author, TimeMillis: tm, Text: text}
		client := Request{Author: author, TimeMillis: tm, Text: text}
		users := make([]int32, len(data)/4)
		for i := range users {
			users[i] = int32(uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24)
		}
		code := 100 + int(status)%900
		wire := appendRequest(nil, &req)
		wire = appendRequest(wire, &client)
		wire = appendOKReply(wire, id, users)
		wire = appendErrReply(wire, code, data)
		br = bufio.NewReader(bytes.NewReader(wire))
		for _, want := range []Request{req, client} {
			payload, err := readFrame(br, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := decodeRequest(payload); err != nil || got != want {
				t.Fatalf("request %+v decodes as %+v, %v", want, got, err)
			}
		}
		payload, err := readFrame(br, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeReply(payload); err != nil || got.Status != 0 || got.ID != id || got.Users == nil || !reflect.DeepEqual(append([]int32{}, users...), got.Users) {
			t.Fatalf("OK reply %d %v decodes as %+v, %v", id, users, got, err)
		}
		if payload, err = readFrame(br, &buf); err != nil {
			t.Fatal(err)
		}
		if got, err := decodeReply(payload); err != nil || got.Status != code || !bytes.Equal(got.Envelope, data) {
			t.Fatalf("error reply %d %q decodes as %+v, %v", code, data, got, err)
		}
		if _, err := readFrame(br, &buf); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	})
}
