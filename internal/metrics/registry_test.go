package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("test_requests_total", "Total requests.", KindCounter, func() []Sample {
		return []Sample{
			{Labels: []Label{{"code", "200"}}, Value: 7},
			{Labels: []Label{{"code", "500"}}, Value: 1},
		}
	})
	r.MustRegister("test_queue_depth", "Queue depth.", KindGauge, func() []Sample {
		return []Sample{{Value: 3}}
	})
	var h Histogram
	h.Observe(200 * time.Nanosecond) // bucket le=2.5e-07
	h.Observe(2 * time.Second)       // overflow: +Inf only
	r.MustRegister("test_latency_seconds", "Latency.", KindHistogram, func() []Sample {
		return []Sample{{Labels: []Label{{"algorithm", "UniBin"}}, Hist: h}}
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP test_requests_total Total requests.\n",
		"# TYPE test_requests_total counter\n",
		`test_requests_total{code="200"} 7` + "\n",
		`test_requests_total{code="500"} 1` + "\n",
		"# TYPE test_queue_depth gauge\ntest_queue_depth 3\n",
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{algorithm="UniBin",le="1e-07"} 0` + "\n",
		`test_latency_seconds_bucket{algorithm="UniBin",le="2.5e-07"} 1` + "\n",
		`test_latency_seconds_bucket{algorithm="UniBin",le="1"} 1` + "\n",
		`test_latency_seconds_bucket{algorithm="UniBin",le="+Inf"} 2` + "\n",
		`test_latency_seconds_sum{algorithm="UniBin"} 2.0000002` + "\n",
		`test_latency_seconds_count{algorithm="UniBin"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
	// Families are sorted by name.
	if strings.Index(out, "test_latency_seconds") > strings.Index(out, "test_queue_depth") {
		t.Error("families not sorted by name")
	}
	// Every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	collect := func() []Sample { return nil }
	if err := r.Register("ok_name", "", KindGauge, collect); err != nil {
		t.Fatalf("valid name rejected: %v", err)
	}
	if err := r.Register("ok_name", "", KindGauge, collect); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register("0bad", "", KindGauge, collect); err == nil {
		t.Fatal("invalid name accepted")
	}
	if err := r.Register("no_collector", "", KindGauge, nil); err == nil {
		t.Fatal("nil collector accepted")
	}
}

func TestRegistryEscaping(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("esc_metric", "line1\nline2 \\slash", KindGauge, func() []Sample {
		return []Sample{{Labels: []Label{{"path", `a"b\c` + "\nd"}}, Value: 1}}
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP esc_metric line1\nline2 \\slash`) {
		t.Errorf("help not escaped: %s", out)
	}
	if !strings.Contains(out, `esc_metric{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped: %s", out)
	}
}

func TestCountersEdgeCases(t *testing.T) {
	var c Counters
	// Zero processed posts: PruneRatio is 0, not NaN.
	if got := c.PruneRatio(); got != 0 {
		t.Fatalf("PruneRatio of empty counters = %v", got)
	}
	// Non-positive bytesPerCopy estimates 0, not a negative footprint.
	c.AddStored(10)
	for _, bpc := range []int{0, -24} {
		if got := c.EstimateRAMBytes(bpc); got != 0 {
			t.Fatalf("EstimateRAMBytes(%d) = %d, want 0", bpc, got)
		}
	}
	if got := c.EstimateRAMBytes(24); got != 240 {
		t.Fatalf("EstimateRAMBytes(24) = %d, want 240", got)
	}
	// Overflow saturates instead of wrapping negative.
	big := Counters{StoredPeak: 1 << 62}
	if got := big.EstimateRAMBytes(1 << 10); got != int64(^uint64(0)>>1) {
		t.Fatalf("overflowing estimate = %d, want MaxInt64", got)
	}
	// A negative peak (possible only through adversarial merges) clamps to 0.
	neg := Counters{StoredPeak: -5}
	if got := neg.EstimateRAMBytes(24); got != 0 {
		t.Fatalf("negative-peak estimate = %d, want 0", got)
	}
}

// TestRegistryGroup: a group's families interleave with the others by name,
// yet their shared collector runs once per scrape; a group registers all or
// none of its names.
func TestRegistryGroup(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.MustRegister("b_single", "", KindGauge, func() []Sample { return []Sample{{Value: 7}} })
	r.MustRegisterGroup([]Family{
		{Name: "c_group", Kind: KindCounter},
		{Name: "a_group", Kind: KindGauge},
		{Name: "d_group_short", Kind: KindGauge},
	}, func() [][]Sample {
		calls++
		return [][]Sample{{{Value: float64(calls)}}, {{Value: float64(10 * calls)}}} // d_group_short: no samples
	})
	for scrape := 1; scrape <= 2; scrape++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if calls != scrape {
			t.Fatalf("after %d scrapes the group collected %d times", scrape, calls)
		}
		want := fmt.Sprintf("# TYPE a_group gauge\na_group %d\n# TYPE b_single gauge\nb_single 7\n# TYPE c_group counter\nc_group %d\n# TYPE d_group_short gauge\n", 10*scrape, scrape)
		if got := sb.String(); got != want {
			t.Fatalf("scrape %d:\n%s\nwant:\n%s", scrape, got, want)
		}
	}

	if err := r.RegisterGroup([]Family{{Name: "e_new"}, {Name: "b_single"}}, func() [][]Sample { return nil }); err == nil {
		t.Fatal("group reusing a registered name accepted")
	}
	if err := r.RegisterGroup([]Family{{Name: "f_twice"}, {Name: "f_twice"}}, func() [][]Sample { return nil }); err == nil {
		t.Fatal("group naming one family twice accepted")
	}
	if err := r.RegisterGroup([]Family{{Name: "0bad"}}, func() [][]Sample { return nil }); err == nil {
		t.Fatal("group with an invalid name accepted")
	}
	if err := r.RegisterGroup([]Family{{Name: "g_ok"}}, nil); err == nil {
		t.Fatal("group with a nil collector accepted")
	}
	if err := r.Register("e_new", "", KindGauge, func() []Sample { return nil }); err != nil {
		t.Fatalf("a refused group left its name behind: %v", err)
	}
}
