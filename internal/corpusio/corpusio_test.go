package corpusio

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/twittergen"
)

func samplePosts() []*core.Post {
	return []*core.Post{
		core.NewPost(1, 0, 100, "Over 300 people missing after ferry sinks http://t.co/a"),
		core.NewPost(2, 3, 200, `text with "quotes", unicode — café ☕ and\nbackslashes`),
		core.NewPost(3, 1, 200, "tied timestamps are fine"),
	}
}

func TestPostsRoundTrip(t *testing.T) {
	posts := samplePosts()
	var buf bytes.Buffer
	if err := WritePosts(&buf, posts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPosts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(posts) {
		t.Fatalf("read %d posts, want %d", len(got), len(posts))
	}
	for i := range posts {
		if !reflect.DeepEqual(got[i], posts[i]) {
			t.Fatalf("post %d mismatch:\n got %+v\nwant %+v", i, got[i], posts[i])
		}
	}
}

func TestPostsFingerprintRecomputed(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePosts(&buf, samplePosts()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"fp"`) {
		t.Fatal("fingerprints should not be serialized")
	}
	got, err := ReadPosts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if p.FP != core.Fingerprint(p.Text) {
			t.Fatalf("fingerprint not recomputed for %q", p.Text)
		}
	}
}

func TestReadPostsErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"empty", ""},
		{"wrong kind", `{"kind":"firehose/followees","version":1}`},
		{"bad version", `{"kind":"firehose/posts","version":99}`},
		{"garbage header", `not json`},
		{"garbage record", "{\"kind\":\"firehose/posts\",\"version\":1}\nnope"},
		{"out of order", "{\"kind\":\"firehose/posts\",\"version\":1}\n" +
			`{"id":1,"author":0,"timeMillis":200,"text":"a b"}` + "\n" +
			`{"id":2,"author":0,"timeMillis":100,"text":"c d"}`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPosts(strings.NewReader(tc.in)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestFolloweesRoundTrip(t *testing.T) {
	fs := [][]int32{{1, 2, 3}, {}, {0, 9}}
	var buf bytes.Buffer
	if err := WriteFollowees(&buf, fs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFollowees(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d vectors", len(got))
	}
	if !reflect.DeepEqual(got[0], []int32{1, 2, 3}) || len(got[1]) != 0 ||
		!reflect.DeepEqual(got[2], []int32{0, 9}) {
		t.Fatalf("round trip mismatch: %v", got)
	}
}

func TestReadFolloweesOrderEnforced(t *testing.T) {
	in := "{\"kind\":\"firehose/followees\",\"version\":1}\n" +
		`{"author":1,"followees":[2]}`
	if _, err := ReadFollowees(strings.NewReader(in)); err == nil {
		t.Fatal("gap in author ids accepted")
	}
}

// TestReadersRefuseMiscountedFiles: a posts or followees file cut at a line
// boundary, or with a record appended, no longer matches its header's count
// and is refused with both numbers; a header without a count (or a
// non-positive one) is read as before.
func TestReadersRefuseMiscountedFiles(t *testing.T) {
	var posts, followees bytes.Buffer
	if err := WritePosts(&posts, samplePosts()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFollowees(&followees, [][]int32{{1, 2, 3}, {}, {0, 9}}); err != nil {
		t.Fatal(err)
	}
	readers := map[string]struct {
		file string
		read func(string) (int, error)
	}{
		"posts": {posts.String(), func(in string) (int, error) {
			ps, err := ReadPosts(strings.NewReader(in))
			return len(ps), err
		}},
		"followees": {followees.String(), func(in string) (int, error) {
			fs, err := ReadFollowees(strings.NewReader(in))
			return len(fs), err
		}},
	}
	for name, r := range readers {
		lines := strings.SplitAfter(r.file, "\n")
		header, records := lines[0], lines[1:len(lines)-1] // the file ends in a newline
		if n, err := r.read(r.file); err != nil || n != 3 {
			t.Fatalf("%s: intact file read %d records, %v", name, n, err)
		}
		for _, tc := range []struct{ what, in, want string }{
			{"cut after two records", header + strings.Join(records[:2], ""), "declares 3 records, read 2"},
			{"cut after the header", header, "declares 3 records, read 0"},
			{"one record appended", r.file + records[2], "declares 3 records, read 4"},
		} {
			if name == "followees" && tc.what == "one record appended" {
				tc.in = r.file + `{"author":3,"followees":[1]}` + "\n"
			}
			if _, err := r.read(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: err = %v, want it to say %q", name, tc.what, err, tc.want)
			}
		}
		for _, count := range []string{``, `,"count":0`, `,"count":-5`} {
			h := strings.Replace(header, `,"count":3`, count, 1)
			if n, err := r.read(h + strings.Join(records[:2], "")); err != nil || n != 2 {
				t.Errorf("%s under header %q: read %d records, %v; want 2 and no error", name, strings.TrimSpace(h), n, err)
			}
		}
	}
}

// followeeLines seeds TestDecodeFolloweeLine and FuzzReadFollowees.
// canonical says whether decodeFolloweeLine must decode the line itself
// rather than leave it to encoding/json.
var followeeLines = []struct {
	line      string
	canonical bool
}{
	{`{"author":0,"followees":[1,2,3]}`, true},
	{`{"author":0,"followees":[]}`, true},
	{`{"author":0,"followees":null}`, true},
	{`{"author":0,"followees":[-2147483648,2147483647,0,-1,5,5]}`, true},
	{`{"author":2147483647,"followees":[7]}`, true},
	{`{"author":-7,"followees":[7]}`, true},

	{``, false},
	{`{"author":0}`, false},
	{`{"followees":[1],"author":0}`, false},
	{`{"author":0, "followees":[1]}`, false},
	{`{"author":0,"followees":[1 ,2]}`, false},
	{`{"author":0,"followees":[1,2]} `, false},
	{`{"author":0,"followees":[1,2],"x":1}`, false},
	{`{"author":0,"Followees":[1]}`, false},
	{`{"author":0,"author":1,"followees":[1]}`, false},
	{`{"auth\u006fr":0,"followees":[1]}`, false},
	{`{"author":0,"followees":[2147483648]}`, false},
	{`{"author":0,"followees":[-2147483649]}`, false},
	{`{"author":2147483648,"followees":[1]}`, false},
	{`{"author":0,"followees":[99999999999999999999]}`, false},
	{`{"author":0,"followees":[01]}`, false},
	{`{"author":-0,"followees":[1]}`, false},
	{`{"author":0,"followees":[-0]}`, false},
	{`{"author":0,"followees":[-]}`, false},
	{`{"author":0,"followees":[1.0]}`, false},
	{`{"author":0,"followees":[1e2]}`, false},
	{`{"author":0,"followees":[1,]}`, false},
	{`{"author":0,"followees":[,1]}`, false},
	{`{"author":0,"followees":[1,2}`, false},
	{`{"author":0,"followees":[1,2]`, false},
	{`{"author":0,"followees":["1"]}`, false},
	{`{"author":0,"followees":{}}`, false},
	{`{"author":0,"followees":nul}`, false},
	{`{"author":null,"followees":[1]}`, false},
}

func TestDecodeFolloweeLine(t *testing.T) {
	for _, c := range followeeLines {
		rec, ok := decodeFolloweeLine([]byte(c.line))
		if ok != c.canonical {
			t.Errorf("decodeFolloweeLine accepted=%v for %q, want %v", ok, c.line, c.canonical)
			continue
		}
		if !ok {
			continue
		}
		var std followeeRecord
		if err := json.Unmarshal([]byte(c.line), &std); err != nil || !reflect.DeepEqual(rec, std) {
			t.Errorf("%q: fast path %+v, encoding/json %+v (err %v)", c.line, rec, std, err)
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g := authorsim.NewGraph(5, []authorsim.SimPair{
		{A: 0, B: 1}, {A: 1, B: 2}, {A: 3, B: 4},
	}, 0.7)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAuthors() != 5 || got.NumEdges() != 3 || got.LambdaA() != 0.7 {
		t.Fatalf("graph shape: n=%d e=%d λa=%v", got.NumAuthors(), got.NumEdges(), got.LambdaA())
	}
	for a := int32(0); a < 5; a++ {
		for b := int32(0); b < 5; b++ {
			if g.Similar(a, b) != got.Similar(a, b) {
				t.Fatalf("Similar(%d,%d) changed", a, b)
			}
		}
	}
}

func TestGraphRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sg, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(sg.Followees), 0.7)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() || got.NumAuthors() != g.NumAuthors() {
		t.Fatalf("edges %d vs %d, authors %d vs %d",
			got.NumEdges(), g.NumEdges(), got.NumAuthors(), g.NumAuthors())
	}
	for a := int32(0); a < int32(g.NumAuthors()); a++ {
		if !reflect.DeepEqual(g.Neighbors(a), got.Neighbors(a)) {
			t.Fatalf("neighbors of %d changed", a)
		}
	}
}

func TestReadGraphErrors(t *testing.T) {
	tests := []string{
		`{"kind":"firehose/authorgraph","version":1}`, // missing numAuthors
		"{\"kind\":\"firehose/authorgraph\",\"version\":1,\"numAuthors\":3}\n" +
			`{"a":0,"b":9}`, // edge out of range
		"{\"kind\":\"firehose/authorgraph\",\"version\":1,\"numAuthors\":3}\n" +
			`{"a":1,"b":1}`, // self loop
	}
	for i, in := range tests {
		if _, err := ReadGraph(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestCoverRoundTrip(t *testing.T) {
	g := authorsim.NewGraph(4, []authorsim.SimPair{
		{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 2}, {A: 2, B: 3},
	}, 0.7)
	authors := []int32{0, 1, 2, 3}
	cc := authorsim.GreedyCliqueCover(g, authors)

	var buf bytes.Buffer
	if err := WriteCover(&buf, cc, 0.7); err != nil {
		t.Fatal(err)
	}
	got, lambdaA, err := ReadCover(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if lambdaA != 0.7 {
		t.Fatalf("lambdaA = %v", lambdaA)
	}
	if !reflect.DeepEqual(got.Cliques, cc.Cliques) {
		t.Fatalf("cliques changed: %v vs %v", got.Cliques, cc.Cliques)
	}
	if !got.CoversAllEdges(g, authors) || !got.IsValid(g) {
		t.Fatal("reloaded cover invalid")
	}
	for _, a := range authors {
		if !reflect.DeepEqual(got.CliquesOf(a), cc.CliquesOf(a)) {
			t.Fatalf("CliquesOf(%d) changed", a)
		}
	}
}

func TestReadCoverValidation(t *testing.T) {
	// A "clique" whose members are not adjacent must be rejected when a
	// graph is supplied, and accepted when validation is skipped.
	g := authorsim.NewGraph(3, []authorsim.SimPair{{A: 0, B: 1}}, 0.7)
	in := "{\"kind\":\"firehose/cliquecover\",\"version\":1,\"lambdaA\":0.7}\n" +
		`{"members":[0,2]}`
	if _, _, err := ReadCover(strings.NewReader(in), g); err == nil {
		t.Fatal("invalid clique accepted with validation")
	}
	if _, _, err := ReadCover(strings.NewReader(in), nil); err != nil {
		t.Fatalf("validation skipped but got error: %v", err)
	}
	empty := "{\"kind\":\"firehose/cliquecover\",\"version\":1}\n" + `{"members":[]}`
	if _, _, err := ReadCover(strings.NewReader(empty), nil); err == nil {
		t.Fatal("empty clique accepted")
	}
}

// TestFullPipelineRoundTrip generates a dataset, persists every artifact,
// reloads them and verifies the diversified output is identical.
func TestFullPipelineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sg, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(sg.Followees), 0.7)
	vocab := twittergen.NewVocab(rand.New(rand.NewSource(7)), 1000)
	stream, err := twittergen.GenerateStream(rand.New(rand.NewSource(8)), sg, g, vocab,
		twittergen.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{LambdaC: 18, LambdaT: 30 * 60 * 1000, LambdaA: 0.7}

	var posts, followees, graph bytes.Buffer
	if err := WritePosts(&posts, stream.Posts); err != nil {
		t.Fatal(err)
	}
	if err := WriteFollowees(&followees, sg.Followees); err != nil {
		t.Fatal(err)
	}
	if err := WriteGraph(&graph, g); err != nil {
		t.Fatal(err)
	}

	rPosts, err := ReadPosts(&posts)
	if err != nil {
		t.Fatal(err)
	}
	rFollowees, err := ReadFollowees(&followees)
	if err != nil {
		t.Fatal(err)
	}
	rGraph, err := ReadGraph(&graph)
	if err != nil {
		t.Fatal(err)
	}

	// Diversify with original and reloaded artifacts: identical output.
	want := core.Run(core.NewUniBin(g, th), stream.Posts)
	got := core.Run(core.NewUniBin(rGraph, th), rPosts)
	if len(want) != len(got) {
		t.Fatalf("output sizes differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("output diverges at %d", i)
		}
	}
	// Rebuilding the graph from reloaded followees also matches.
	g2 := authorsim.BuildGraph(authorsim.NewVectors(rFollowees), 0.7)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("rebuilt graph has %d edges, want %d", g2.NumEdges(), g.NumEdges())
	}
}

// BenchmarkReadFollowees times decoding the followees file a daemon reads
// at boot: the pipeline benchmark's 5,000 generated authors, seed 1.
func BenchmarkReadFollowees(b *testing.B) {
	sg, err := twittergen.GenerateGraph(rand.New(rand.NewSource(1)), twittergen.DefaultGraphConfig(5000))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFollowees(&buf, sg.Followees); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFollowees(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
