package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"firehose/internal/core"
)

// ingestCorpus seeds the decoder tests and fuzz targets. canonical says
// whether the fast path must accept the single-post body; the fuzz targets
// only need the bytes.
var ingestCorpus = []struct {
	body      string
	canonical bool
}{
	{`{"author":3,"text":"plain ascii","timeMillis":1000}`, true},
	{`{"timeMillis":-5,"text":"any key order","author":-2147483648}`, true},
	{" {\t\"author\" : 0 ,\r\n \"text\" : \"ws everywhere\" , \"timeMillis\" : 9223372036854775807 } \n", true},
	{`{}`, true},
	{`{"author":0,"timeMillis":6000}`, true},
	{`{"author":1,"text":"html \u0026 \u003c \u003e escapes","timeMillis":1}`, true},
	{`{"author":1,"text":"\"\\\/\b\f\n\r\t é 中","timeMillis":1}`, true},
	{`{"author":1,"text":"pair \ud83d\ude00 \uD83D\uDE00 ok","timeMillis":1}`, true},
	{`{"author":1,"text":"raw utf8 é 中 😀","timeMillis":1}`, true},
	{`{"author":1,"text":"nul \u0000 and replacement \ufffd","timeMillis":1}`, true},
	{`{"author":1,"text":"","timeMillis":1}`, true},

	{``, false},
	{`[`, false},
	{`{"author": nope}`, false},
	{`{"author":1,"text":"lone high \ud83d","timeMillis":1}`, false},
	{`{"author":1,"text":"lone low \ude00","timeMillis":1}`, false},
	{`{"author":1,"text":"high then bmp \ud83dA","timeMillis":1}`, false},
	{`{"author":1,"author":2,"text":"dup","timeMillis":1}`, false},
	{`{"Author":1,"TEXT":"mixed case keys","timemillis":1}`, false},
	{`{"auth\u006fr":1,"text":"escaped key","timeMillis":1}`, false},
	{`{"author":1,"text":"unknown key","timeMillis":1,"extra":true}`, false},
	{`{"author":1,"text":"trailing","timeMillis":1} {"author":2}`, false},
	{`{"author":1,"text":"trailing garbage","timeMillis":1}x`, false},
	{`{"author":-0,"text":"neg zero","timeMillis":1}`, false},
	{`{"author":01,"text":"leading zero","timeMillis":1}`, false},
	{`{"author":1.0,"text":"fraction","timeMillis":1}`, false},
	{`{"author":1,"text":"exponent","timeMillis":1e3}`, false},
	{`{"author":2147483648,"text":"int32 overflow","timeMillis":1}`, false},
	{`{"author":1,"text":"int64 overflow","timeMillis":9223372036854775808}`, false},
	{`{"author":1,"text":"twenty digits","timeMillis":10000000000000000000}`, false},
	{`{"author":null,"text":"null","timeMillis":1}`, false},
	{`{"author":1,"text":null,"timeMillis":1}`, false},
	{`{"author":"1","text":"string number","timeMillis":1}`, false},
	{`{"author":1,"text":"bad escape \x","timeMillis":1}`, false},
	{`{"author":1,"text":"short hex \u12","timeMillis":1}`, false},
	{"{\"author\":1,\"text\":\"raw control \x01\",\"timeMillis\":1}", false},
	{"{\"author\":1,\"text\":\"raw newline \n\",\"timeMillis\":1}", false},
	{"{\"author\":1,\"text\":\"invalid utf8 \xff\",\"timeMillis\":1}", false},
	{"{\"author\":1,\"text\":\"invalid after escape \\n \xc3\x28\",\"timeMillis\":1}", false},
	{`{"author":1,"text":"trailing comma","timeMillis":1,}`, false},
	{`{"author":1,"text":"unterminated`, false},
	{"\ufeff{}", false}, // byte order mark,
}

// stdIngest decodes the way the handlers did before the codec, and still do
// on the fallback.
func stdIngest(data []byte) (IngestRequest, error) {
	var req IngestRequest
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&req)
	return req, err
}

func stdBatch(data []byte) ([]core.Post, error) {
	var req BatchIngestRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return nil, err
	}
	var posts []core.Post
	for _, p := range req.Posts {
		posts = append(posts, core.Post{Author: p.Author, Time: p.TimeMillis, Text: p.Text})
	}
	return posts, nil
}

// checkIngestAgainstStd is the differential property: whatever the fast path
// accepts, encoding/json accepts with the same value.
func checkIngestAgainstStd(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	var cb codecBuf
	fast, ok := cb.decodeIngest(data)
	if !ok {
		return false
	}
	std, err := stdIngest(data)
	if err != nil {
		t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", data, err)
	}
	if fast != std {
		t.Fatalf("fast path decoded %q to %+v, encoding/json to %+v", data, fast, std)
	}
	return true
}

func checkBatchAgainstStd(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	var cb codecBuf
	fast, ok := cb.decodeBatch(data)
	if !ok {
		return false
	}
	std, err := stdBatch(data)
	if err != nil {
		t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", data, err)
	}
	if len(fast) != len(std) {
		t.Fatalf("fast path decoded %d posts from %q, encoding/json %d", len(fast), data, len(std))
	}
	for i := range fast {
		if fast[i] != std[i] {
			t.Fatalf("post %d of %q: fast path %+v, encoding/json %+v", i, data, fast[i], std[i])
		}
	}
	return true
}

func batchBodies() []string {
	var out []string
	for _, c := range ingestCorpus {
		out = append(out,
			`{"posts":[`+c.body+`]}`,
			`{"posts":[{"author":1,"text":"first","timeMillis":1},`+c.body+`]}`)
	}
	return append(out,
		`{}`, `{"posts":[]}`, ` { "posts" : [ ] } `, `{"posts":null}`, `{"Posts":[]}`,
		`{"posts":[],"posts":[]}`, `{"posts":[{}],"x":1}`, `{"posts":[{},]}`, `{"posts":[{}]} trailing`, `[`)
}

func TestDecodeIngestCorpus(t *testing.T) {
	for _, c := range ingestCorpus {
		if got := checkIngestAgainstStd(t, []byte(c.body)); got != c.canonical {
			t.Errorf("fast path accepted=%v for %q, want %v", got, c.body, c.canonical)
		}
	}
	for _, body := range batchBodies() {
		checkBatchAgainstStd(t, []byte(body))
	}
	for body, want := range map[string]int{`{}`: 0, `{"posts":[]}`: 0, ` { "posts" : [ {} , {} ] } `: 2} {
		var cb codecBuf
		if posts, ok := cb.decodeBatch([]byte(body)); !ok || len(posts) != want {
			t.Errorf("decodeBatch(%q) = %d posts, accepted=%v; want %d, accepted", body, len(posts), ok, want)
		}
	}
}

func FuzzDecodeIngest(f *testing.F) {
	for _, c := range ingestCorpus {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkIngestAgainstStd(t, data) })
}

func FuzzDecodeBatch(f *testing.F) {
	for _, body := range batchBodies() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkBatchAgainstStd(t, data) })
}

// awkwardTexts are post texts whose json.Marshal form uses every escape the
// encoder can emit: HTML escaping, U+2028/U+2029, control bytes, quotes.
var awkwardTexts = []string{
	"ferry sinks, 300 missing http://t.co/a",
	"R&D <b>bold</b> a>b",
	`quotes " and \ backslashes / slashes`,
	"tabs\tnewlines\ncontrol\x01\x1f",
	"line sep \u2028 para sep \u2029",
	"émoji 😀 中文 Köln",
	"was invalid utf8 \ufffd once",
}

// TestMarshalledBodiesTakeFastPath guards against a silent 100% fallback:
// what json.Marshal produces — which is what loadgen and most clients send —
// must be canonical.
func TestMarshalledBodiesTakeFastPath(t *testing.T) {
	req := BatchIngestRequest{Posts: make([]IngestRequest, 256)}
	for i := range req.Posts {
		req.Posts[i] = IngestRequest{
			Author:     int32(i % 7),
			Text:       fmt.Sprintf("%s #%d", awkwardTexts[i%len(awkwardTexts)], i),
			TimeMillis: int64(1000 + i),
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if !checkBatchAgainstStd(t, body) {
		t.Fatal("a json.Marshal-produced 256-post batch fell back to encoding/json")
	}
	for _, p := range req.Posts[:len(awkwardTexts)] {
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !checkIngestAgainstStd(t, body) {
			t.Fatalf("json.Marshal-produced post %s fell back to encoding/json", body)
		}
	}
}

// TestFallbackSeesBodyReadError: a body that fails mid-read reaches
// encoding/json as the bytes so far followed by the error, as it did when
// the decoder read the body itself.
func TestFallbackSeesBodyReadError(t *testing.T) {
	boom := errors.New("connection reset")
	var cb codecBuf
	_, err := cb.decodeIngestBody(iotest.TimeoutReader(strings.NewReader(`{"author":1,`)))
	if !errors.Is(err, iotest.ErrTimeout) {
		t.Fatalf("decode error %v, want the read error", err)
	}
	_, err = cb.decodeBatchBody(iotest.ErrReader(boom))
	if !errors.Is(err, boom) {
		t.Fatalf("decode error %v, want %v", err, boom)
	}
}

// TestResponseBytesMatchEncoder pins the hand-written response encoder to
// json.Encoder's output, byte for byte, for empty and non-empty deliveries.
func TestResponseBytesMatchEncoder(t *testing.T) {
	encode := func(v any) string {
		var sb strings.Builder
		if err := json.NewEncoder(&sb).Encode(v); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, r := range []IngestResponse{
		{ID: 1, Delivered: []int32{}},
		{ID: 18446744073709551615, Delivered: []int32{0}},
		{ID: 42, Delivered: []int32{0, 7, 2147483647, -1}},
	} {
		if got, want := string(appendIngestResponse(nil, r.ID, r.Delivered))+"\n", encode(r); got != want {
			t.Errorf("appendIngestResponse = %q, json.Encoder = %q", got, want)
		}
	}

	// Through the handlers: re-encoding the decoded body must give the body.
	srv := newAPIServer(t)
	defer srv.Close()
	post := func(path, body string) string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q: %s", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		return rec.Body.String()
	}
	single := post("/v1/ingest", `{"author":0,"text":"ferry sinks, 300 missing","timeMillis":1000}`)
	var sr IngestResponse
	if err := json.Unmarshal([]byte(single), &sr); err != nil {
		t.Fatal(err)
	}
	if want := encode(sr); single != want || len(sr.Delivered) == 0 {
		t.Errorf("single response %q, json.Encoder %q", single, want)
	}
	batch := post("/v1/ingest/batch", `{"posts":[
		{"author":0,"text":"ferry sinks, 300 missing","timeMillis":2000},
		{"author":2,"text":"an unrelated story about weather","timeMillis":3000}]}`)
	var br BatchIngestResponse
	if err := json.Unmarshal([]byte(batch), &br); err != nil {
		t.Fatal(err)
	}
	if want := encode(br); batch != want {
		t.Errorf("batch response %q, json.Encoder %q", batch, want)
	}
	if len(br.Results) != 2 || len(br.Results[0].Delivered) != 0 || len(br.Results[1].Delivered) == 0 {
		t.Errorf("batch results %+v: want one covered post (empty delivery) and one delivered", br.Results)
	}
}

// errEngineFailed is failOnceEngine's refusal, a plain engine error.
var errEngineFailed = errors.New("engine: decision failed")

// failOnceEngine refuses the first offer of either kind with errEngineFailed
// and then behaves like the engine it wraps; storing false in failed re-arms
// it.
type failOnceEngine struct {
	Engine
	failed atomic.Bool
}

func (e *failOnceEngine) Offer(p *core.Post) ([]int32, error) {
	if !e.failed.Swap(true) {
		return nil, errEngineFailed
	}
	return e.Engine.Offer(p)
}

func (e *failOnceEngine) OfferBatch(posts []*core.Post) ([][]int32, error) {
	if !e.failed.Swap(true) {
		return nil, errEngineFailed
	}
	return e.Engine.OfferBatch(posts)
}

// TestRefusedIngestCanBeRetried: an offer the engine refuses must roll the
// time watermark back with the id. Otherwise the retry of a refused batch
// answers 409 disorder against its own last timestamp, and after a refused
// single post an earlier one — still in order, since the refused post never
// entered the stream — is rejected.
func TestRefusedIngestCanBeRetried(t *testing.T) {
	for _, c := range []struct{ name, path, refused, retry string }{
		{"single", "/v1/ingest",
			`{"author":0,"text":"refused","timeMillis":7000}`,
			`{"author":0,"text":"earlier than the refused post","timeMillis":6500}`},
		{"batch", "/v1/ingest/batch",
			`{"posts":[{"author":0,"text":"retry me","timeMillis":6000},{"author":2,"text":"and me","timeMillis":7000}]}`,
			`{"posts":[{"author":0,"text":"retry me","timeMillis":6000},{"author":2,"text":"and me","timeMillis":7000}]}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			inner := newAPIServer(t)
			srv := NewFromEngine(&failOnceEngine{Engine: inner.engine})
			defer srv.Close()
			do := func(body string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(body)))
				return rec
			}
			if rec := do(c.refused); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("first attempt: status %d, want 503: %s", rec.Code, rec.Body)
			}
			rec := do(c.retry)
			if rec.Code != http.StatusOK {
				t.Fatalf("retry: status %d, want 200: %s", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), `{"id":1,`) {
				t.Fatalf("the refused attempt burned an id: %s", rec.Body)
			}
		})
	}
}
