package firehose

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// testFollowees builds followee vectors where authors 0 and 1 are similar
// (sharing most followees) and author 2 is unrelated.
func testFollowees() [][]AuthorID {
	return [][]AuthorID{
		{10, 11, 12, 13},
		{10, 11, 12, 14},
		{20, 21, 22, 23},
	}
}

func mustGraph(t *testing.T, lambdaA float64) *AuthorGraph {
	t.Helper()
	g, err := BuildAuthorGraph(testFollowees(), lambdaA)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildAuthorGraph(t *testing.T) {
	g := mustGraph(t, 0.7)
	if g.NumAuthors() != 3 {
		t.Fatalf("NumAuthors = %d", g.NumAuthors())
	}
	if !g.Similar(0, 1) {
		t.Fatal("authors 0 and 1 share 3/4 followees (sim 0.75): should be similar at λa=0.7")
	}
	if g.Similar(0, 2) {
		t.Fatal("authors 0 and 2 are disjoint: should be dissimilar")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []AuthorID{1}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if g.LambdaA() != 0.7 {
		t.Fatalf("LambdaA = %v", g.LambdaA())
	}
	if d := g.AvgDegree(); math.Abs(d-2.0/3.0) > 1e-9 {
		t.Fatalf("AvgDegree = %v", d)
	}
}

func TestBuildAuthorGraphErrors(t *testing.T) {
	if _, err := BuildAuthorGraph(testFollowees(), 1.0); err == nil {
		t.Fatal("lambdaA=1 accepted")
	}
	if _, err := BuildAuthorGraph(testFollowees(), -0.1); err == nil {
		t.Fatal("negative lambdaA accepted")
	}
}

func TestNewAuthorGraphFromEdges(t *testing.T) {
	g, err := NewAuthorGraphFromEdges(3, [][2]AuthorID{{0, 1}}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Similar(0, 1) || g.Similar(1, 2) {
		t.Fatal("edge graph wrong")
	}
	if _, err := NewAuthorGraphFromEdges(3, [][2]AuthorID{{0, 0}}, 0.7); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := NewAuthorGraphFromEdges(3, [][2]AuthorID{{0, 9}}, 0.7); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := NewAuthorGraphFromEdges(3, nil, 2); err == nil {
		t.Fatal("bad lambdaA accepted")
	}
}

func TestAuthorSimilarity(t *testing.T) {
	got := AuthorSimilarity([]AuthorID{1, 2, 3, 4}, []AuthorID{3, 4, 5, 6})
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("AuthorSimilarity = %v, want 0.5", got)
	}
	if AuthorSimilarity(nil, []AuthorID{1}) != 0 {
		t.Fatal("empty vector similarity should be 0")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LambdaC != 18 || cfg.LambdaT != 30*time.Minute || cfg.LambdaA != 0.7 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}

func TestNewDiversifierValidation(t *testing.T) {
	g := mustGraph(t, 0.7)
	cfg := DefaultConfig()
	if _, err := NewDiversifier(UniBin, nil, nil, cfg); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad := cfg
	bad.LambdaC = 99
	if _, err := NewDiversifier(UniBin, g, nil, bad); err == nil {
		t.Fatal("bad LambdaC accepted")
	}
	mismatched := cfg
	mismatched.LambdaA = 0.5
	if _, err := NewDiversifier(UniBin, g, nil, mismatched); err == nil {
		t.Fatal("LambdaA mismatch with graph accepted")
	}
	if _, err := NewDiversifier(UniBin, g, []AuthorID{7}, cfg); err == nil {
		t.Fatal("out-of-range subscription accepted")
	}
}

func TestDiversifierEndToEnd(t *testing.T) {
	g := mustGraph(t, 0.7)
	cfg := DefaultConfig()
	base := time.Date(2016, 3, 15, 9, 0, 0, 0, time.UTC)

	for _, alg := range []Algorithm{UniBin, NeighborBin, CliqueBin} {
		d, err := NewDiversifier(alg, g, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		posts := []Post{
			{Author: 0, Time: base, Text: "Over 300 people missing after ferry sinks. Story: http://t.co/aaa"},
			// Same story re-shared by the similar author 1 minutes later,
			// with a different shortened URL: redundant.
			{Author: 1, Time: base.Add(5 * time.Minute), Text: "Over 300 people missing after ferry sinks. Story: http://t.co/bbb"},
			// Same text but from the dissimilar author 2: kept.
			{Author: 2, Time: base.Add(6 * time.Minute), Text: "Over 300 people missing after ferry sinks. Story: http://t.co/ccc"},
			// Unrelated content from author 1: kept.
			{Author: 1, Time: base.Add(7 * time.Minute), Text: "Alibaba growth accelerates, IPO filing expected next week #tech"},
			// The story again from author 0, but beyond λt=30min: kept.
			{Author: 0, Time: base.Add(40 * time.Minute), Text: "Over 300 people missing after ferry sinks. Story: http://t.co/ddd"},
		}
		got := d.Filter(posts)
		if len(got) != 4 {
			texts := make([]string, len(got))
			for i, p := range got {
				texts[i] = p.Text
			}
			t.Fatalf("%v: emitted %d posts, want 4: %v", alg, len(got), texts)
		}
		st := d.Stats()
		if st.Accepted != 4 || st.Rejected != 1 {
			t.Fatalf("%v: stats %+v", alg, st)
		}
		if st.PruneRatio() != 0.2 {
			t.Fatalf("%v: prune ratio %v", alg, st.PruneRatio())
		}
		if st.Insertions == 0 || st.PeakCopies == 0 || st.EstRAMBytes == 0 {
			t.Fatalf("%v: zero cost stats %+v", alg, st)
		}
	}
}

func TestDiversifierAutoIDs(t *testing.T) {
	g := mustGraph(t, 0.7)
	d, err := NewDiversifier(UniBin, g, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	d.Offer(Post{Author: 0, Time: now, Text: "first words here"})
	d.Offer(Post{Author: 2, Time: now, Text: "completely different other text"})
	if st := d.Stats(); st.Accepted != 2 {
		t.Fatalf("auto-ID posts not processed: %+v", st)
	}
}

func TestDiversifierSubscriptionScoping(t *testing.T) {
	// Subscribing to a subset restricts the author-similarity reuse but the
	// diversifier still processes any posts offered; here authors 0,1 are
	// similar, but the user only follows 0 and 2 — author 1 never appears.
	g := mustGraph(t, 0.7)
	d, err := NewDiversifier(CliqueBin, g, []AuthorID{0, 2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	if !d.Offer(Post{Author: 0, Time: now, Text: "breaking story one http://t.co/x"}) {
		t.Fatal("first post kept")
	}
	if d.Offer(Post{Author: 0, Time: now.Add(time.Minute), Text: "breaking story one http://t.co/y"}) {
		t.Fatal("self-duplicate should be pruned")
	}
	if !d.Offer(Post{Author: 2, Time: now.Add(2 * time.Minute), Text: "breaking story one http://t.co/z"}) {
		t.Fatal("dissimilar author duplicate should be kept")
	}
}

func TestDiversifierAlgorithmName(t *testing.T) {
	g := mustGraph(t, 0.7)
	for alg, want := range map[Algorithm]string{
		UniBin: "UniBin", NeighborBin: "NeighborBin", CliqueBin: "CliqueBin",
	} {
		d, err := NewDiversifier(alg, g, nil, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if d.Algorithm() != want {
			t.Fatalf("Algorithm() = %q, want %q", d.Algorithm(), want)
		}
	}
}

func TestMultiUserService(t *testing.T) {
	g := mustGraph(t, 0.7)
	cfg := DefaultConfig()
	subs := [][]AuthorID{
		{0, 1}, // user 0
		{0, 1}, // user 1 (identical — shares state)
		{2},    // user 2
	}
	svc, err := NewService(g, subs, ServiceOptions{Algorithm: UniBin, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Algorithm() != "S_UniBin" {
		t.Fatalf("Algorithm = %q", svc.Algorithm())
	}
	base := time.Unix(10_000, 0)
	got := svc.Offer(Post{ID: 1, Author: 0, Time: base, Text: "ferry sinks, hundreds missing http://t.co/a"})
	if !reflect.DeepEqual(got, []UserID{0, 1}) {
		t.Fatalf("delivered to %v", got)
	}
	got = svc.Offer(Post{ID: 2, Author: 1, Time: base.Add(time.Minute), Text: "ferry sinks, hundreds missing http://t.co/b"})
	if len(got) != 0 {
		t.Fatalf("redundant post delivered to %v", got)
	}
	got = svc.Offer(Post{ID: 3, Author: 2, Time: base.Add(2 * time.Minute), Text: "ferry sinks, hundreds missing http://t.co/c"})
	if !reflect.DeepEqual(got, []UserID{2}) {
		t.Fatalf("delivered to %v", got)
	}
	if st := svc.Stats(); st.Accepted != 2 || st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Users 0 and 1 share {0,1}; user 2 has {2}: two distinct components.
	if got := svc.SharedComponents(); got != 2 {
		t.Fatalf("SharedComponents = %d, want 2", got)
	}
	indep, err := NewService(g, subs, ServiceOptions{Config: cfg, Independent: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := indep.SharedComponents(); got != 0 {
		t.Fatalf("independent service SharedComponents = %d, want 0", got)
	}
}

func TestMultiUserServiceIndependent(t *testing.T) {
	g := mustGraph(t, 0.7)
	svc, err := NewService(g, [][]AuthorID{{0, 1}, {0, 1}}, ServiceOptions{Algorithm: NeighborBin, Config: DefaultConfig(), Independent: true})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Algorithm() != "M_NeighborBin" {
		t.Fatalf("Algorithm = %q", svc.Algorithm())
	}
	got := svc.Offer(Post{ID: 1, Author: 0, Time: time.Unix(1, 0), Text: "hello world news"})
	if !reflect.DeepEqual(got, []UserID{0, 1}) {
		t.Fatalf("delivered to %v", got)
	}
}

func TestMultiUserServiceValidation(t *testing.T) {
	g := mustGraph(t, 0.7)
	if _, err := NewService(g, [][]AuthorID{{9}}, ServiceOptions{Config: DefaultConfig()}); err == nil {
		t.Fatal("out-of-range subscription accepted")
	}
	if _, err := NewService(nil, nil, ServiceOptions{Config: DefaultConfig()}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestCustomMultiUserService(t *testing.T) {
	g := mustGraph(t, 0.7)
	subs := [][]AuthorID{{0, 1}, {0, 1}}
	cfgs := []Config{
		{LambdaC: 18, LambdaT: time.Minute, LambdaA: 0.7}, // impatient user
		{LambdaC: 18, LambdaT: time.Hour, LambdaA: 0.7},   // patient user
	}
	svc, err := NewService(g, subs, ServiceOptions{Algorithm: UniBin, UserConfigs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Algorithm() != "Custom_M" {
		t.Fatalf("Algorithm = %q", svc.Algorithm())
	}
	base := time.Unix(5000, 0)
	got := svc.Offer(Post{ID: 1, Author: 0, Time: base, Text: "storm knocks out power downtown http://t.co/a"})
	if !reflect.DeepEqual(got, []UserID{0, 1}) {
		t.Fatalf("first post delivered to %v", got)
	}
	// Ten minutes later the same story: past user 0's 1-minute window,
	// inside user 1's 1-hour window.
	got = svc.Offer(Post{ID: 2, Author: 1, Time: base.Add(10 * time.Minute), Text: "storm knocks out power downtown http://t.co/b"})
	if !reflect.DeepEqual(got, []UserID{0}) {
		t.Fatalf("re-share delivered to %v, want [0]", got)
	}

	// Validation paths.
	if _, err := NewService(nil, subs, ServiceOptions{Algorithm: UniBin, UserConfigs: cfgs}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewService(g, subs, ServiceOptions{Algorithm: UniBin, UserConfigs: cfgs[:1]}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := []Config{cfgs[0], {LambdaC: 18, LambdaT: time.Hour, LambdaA: 0.3}}
	if _, err := NewService(g, subs, ServiceOptions{Algorithm: UniBin, UserConfigs: bad}); err == nil {
		t.Fatal("mismatched LambdaA accepted")
	}
}

func TestContentDistance(t *testing.T) {
	if d := ContentDistance("Hello, World!", "hello world"); d != 0 {
		t.Fatalf("normalized-equal texts at distance %d", d)
	}
	a := "Over 300 people missing after ferry sinks"
	b := "Alibaba growth accelerates IPO filing expected"
	if d := ContentDistance(a, b); d < 16 {
		t.Fatalf("unrelated texts at distance %d", d)
	}
}

func TestContentSimilarityCosine(t *testing.T) {
	if s := ContentSimilarityCosine("the quick brown fox", "The quick brown fox!"); math.Abs(s-1) > 1e-9 {
		t.Fatalf("normalized-equal cosine = %v", s)
	}
	if s := ContentSimilarityCosine("aaa bbb", "ccc ddd"); s != 0 {
		t.Fatalf("disjoint cosine = %v", s)
	}
}

func TestStatsPruneRatioZero(t *testing.T) {
	if (Stats{}).PruneRatio() != 0 {
		t.Fatal("empty stats prune ratio should be 0")
	}
}

func ExampleDiversifier() {
	// Authors 0 and 1 follow almost the same accounts — similar. Author 2
	// is unrelated.
	graph, _ := BuildAuthorGraph([][]AuthorID{
		{10, 11, 12, 13},
		{10, 11, 12, 14},
		{20, 21, 22, 23},
	}, 0.7)

	d, _ := NewDiversifier(UniBin, graph, nil, DefaultConfig())
	base := time.Date(2016, 3, 15, 9, 0, 0, 0, time.UTC)

	fmt.Println(d.Offer(Post{Author: 0, Time: base, Text: "Ferry sinks off coast, 300 missing http://t.co/abc"}))
	fmt.Println(d.Offer(Post{Author: 1, Time: base.Add(time.Minute), Text: "Ferry sinks off coast, 300 missing http://t.co/xyz"}))
	fmt.Println(d.Offer(Post{Author: 2, Time: base.Add(2 * time.Minute), Text: "Ferry sinks off coast, 300 missing http://t.co/qqq"}))
	// Output:
	// true
	// false
	// true
}
