package corpusio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"firehose/internal/core"
)

// FuzzReadPosts ensures arbitrary input never panics the reader and that
// write→read→write is a fixed point.
func FuzzReadPosts(f *testing.F) {
	var good bytes.Buffer
	_ = WritePosts(&good, []*core.Post{
		core.NewPost(1, 2, 100, "hello world news"),
		core.NewPost(2, 3, 200, `quotes " and \ slashes`),
	})
	f.Add(good.String())
	f.Add("")
	f.Add("{\"kind\":\"firehose/posts\",\"version\":1}\n{bad json")
	f.Add("{\"kind\":\"firehose/posts\",\"version\":1}\n" +
		`{"id":1,"author":-5,"timeMillis":-99,"text":""}`)
	f.Fuzz(func(t *testing.T, in string) {
		posts, err := ReadPosts(strings.NewReader(in))
		if err != nil {
			return // malformed input must fail cleanly, which it did
		}
		// Valid parse: the round trip must be a fixed point.
		var buf bytes.Buffer
		if err := WritePosts(&buf, posts); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		again, err := ReadPosts(&buf)
		if err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if len(again) != len(posts) {
			t.Fatalf("round trip changed count: %d vs %d", len(again), len(posts))
		}
		for i := range posts {
			if *again[i] != *posts[i] {
				t.Fatalf("round trip changed post %d", i)
			}
		}
	})
}

// FuzzReadGraph ensures arbitrary graph files never panic the reader.
func FuzzReadGraph(f *testing.F) {
	f.Add(`{"kind":"firehose/authorgraph","version":1,"numAuthors":3}` + "\n" + `{"a":0,"b":1}`)
	f.Add(`{"kind":"firehose/authorgraph","version":1,"numAuthors":0}`)
	f.Add("junk")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadGraph(strings.NewReader(in))
		if err != nil {
			return
		}
		// A successfully parsed graph must survive a round trip.
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		again, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if again.NumEdges() != g.NumEdges() || again.NumAuthors() != g.NumAuthors() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// readFolloweesStd is ReadFollowees with every record decoded by
// encoding/json: the reader the fast path must agree with.
func readFolloweesStd(r io.Reader) ([][]int32, error) {
	sc := newScanner(r)
	h, err := readHeader(sc, kindFollowees)
	if err != nil {
		return nil, err
	}
	var out [][]int32
	line := 1
	for sc.Scan() {
		line++
		var rec followeeRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("corpusio: line %d: %w", line, err)
		}
		if int(rec.Author) != len(out) {
			return nil, fmt.Errorf("corpusio: line %d: author %d out of order (expected %d)",
				line, rec.Author, len(out))
		}
		out = append(out, rec.Followees)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if h.Count > 0 && len(out) != h.Count {
		return nil, fmt.Errorf("corpusio: %s header declares %d records, read %d", h.Kind, h.Count, len(out))
	}
	return out, nil
}

// FuzzReadFollowees checks that for any input ReadFollowees returns exactly
// what readFolloweesStd returns: the same vectors, or the same error.
func FuzzReadFollowees(f *testing.F) {
	const header = `{"kind":"firehose/followees","version":1}` + "\n"
	for _, c := range followeeLines {
		f.Add(header + c.line)
		f.Add(header + `{"author":0,"followees":[4]}` + "\n" + strings.Replace(c.line, `"author":0`, `"author":1`, 1))
	}
	var good bytes.Buffer
	_ = WriteFollowees(&good, [][]int32{{3, 1, 2}, nil, {}, {-9}})
	f.Add(good.String())
	f.Add(strings.ReplaceAll(good.String(), "\n", "\r\n"))
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ReadFollowees(strings.NewReader(in))
		want, werr := readFolloweesStd(strings.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("ReadFollowees error %v, encoding/json reader %v", err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadFollowees read %#v, encoding/json reader %#v", got, want)
		}
	})
}
