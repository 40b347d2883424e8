package connector_test

import (
	"testing"
	"time"

	"firehose/internal/connector"
)

// virtualClock simulates time: sleep advances it instantly.
type virtualClock struct {
	t time.Time
	// slept records every sleep duration.
	slept []time.Duration
}

func (c *virtualClock) now() time.Time { return c.t }
func (c *virtualClock) sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.t = c.t.Add(d)
}

func TestPacerPacing(t *testing.T) {
	p, err := connector.NewPacer(2) // 2× speedup: gaps halve
	if err != nil {
		t.Fatal(err)
	}
	clock := &virtualClock{t: time.Unix(100, 0)}
	p.SetClock(clock.now, clock.sleep)

	// Posts at 0, 1s after the first and 3s after the second.
	for _, ms := range []int64{0, 1000, 4000} {
		if !p.Wait(ms, nil) {
			t.Fatalf("Wait(%d) reported a stop", ms)
		}
	}
	if len(clock.slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(clock.slept))
	}
	if clock.slept[0] != 500*time.Millisecond {
		t.Fatalf("first gap %v, want 500ms (1s at 2x)", clock.slept[0])
	}
	// Post 3 is due 2s after the schedule origin; 0.5s already elapsed
	// during the first sleep, so the remaining wait is 1.5s.
	if clock.slept[1] != 1500*time.Millisecond {
		t.Fatalf("second gap %v, want 1.5s", clock.slept[1])
	}
	// Total virtual time elapsed equals the compressed span: 4s at 2×.
	if total := clock.t.Sub(time.Unix(100, 0)); total != 2*time.Second {
		t.Fatalf("total elapsed %v, want 2s", total)
	}
}

func TestPacerNoSleepWhenBehind(t *testing.T) {
	p, _ := connector.NewPacer(1)
	clock := &virtualClock{t: time.Unix(0, 0)}
	p.SetClock(clock.now, func(d time.Duration) {
		clock.slept = append(clock.slept, d)
	})
	p.Wait(0, nil)
	// Simulate slow processing: wall time jumps past the next due time.
	clock.t = clock.t.Add(5 * time.Second)
	if !p.Wait(100, nil) {
		t.Fatal("second post reported a stop")
	}
	if len(clock.slept) != 0 {
		t.Fatalf("slept %v while behind schedule", clock.slept)
	}
}

func TestPacerValidation(t *testing.T) {
	if _, err := connector.NewPacer(10); err != nil {
		t.Fatal(err)
	}
	if _, err := connector.NewPacer(0); err == nil {
		t.Fatal("zero speedup accepted")
	}
	if _, err := connector.NewPacer(-1); err == nil {
		t.Fatal("negative speedup accepted")
	}
}

func TestPacerRealClockSmoke(t *testing.T) {
	// With an extreme speedup the real clock path finishes instantly.
	p, _ := connector.NewPacer(1_000_000)
	start := time.Now()
	for _, ms := range []int64{0, 60_000} {
		if !p.Wait(ms, nil) {
			t.Fatalf("Wait(%d) reported a stop", ms)
		}
	}
	if time.Since(start) > time.Second {
		t.Fatal("pacing took too long")
	}
}
