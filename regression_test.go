package firehose

import (
	"strings"
	"testing"
	"time"
)

// Regression tests for threshold and ID edge-case bugs: before the fixes, a
// sub-millisecond LambdaT was silently truncated to 0 (disabling the time
// dimension) and auto-assigned post ids could collide with caller-supplied
// ones.

func TestSubMillisecondLambdaTRejected(t *testing.T) {
	g := mustGraph(t, 0.7)
	cases := []time.Duration{
		500 * time.Microsecond,              // silently became 0 before
		time.Millisecond + time.Microsecond, // silently became 1ms before
		-700 * time.Microsecond,
	}
	for _, lt := range cases {
		cfg := Config{LambdaC: 18, LambdaT: lt, LambdaA: 0.7}
		if _, err := NewDiversifier(UniBin, g, nil, cfg); err == nil {
			t.Fatalf("LambdaT=%v accepted by NewDiversifier", lt)
		} else if !strings.Contains(err.Error(), "millisecond") {
			t.Fatalf("LambdaT=%v: unhelpful error %q", lt, err)
		}
		if _, err := NewService(g, [][]AuthorID{{0}}, ServiceOptions{Config: cfg}); err == nil {
			t.Fatalf("LambdaT=%v accepted by NewService", lt)
		}
		if _, err := NewParallel(g, [][]AuthorID{{0}}, ParallelServiceOptions{Algorithm: UniBin, Config: cfg, Workers: 2}); err == nil {
			t.Fatalf("LambdaT=%v accepted by NewParallel", lt)
		}
		if _, err := NewService(g, [][]AuthorID{{0}}, ServiceOptions{Algorithm: UniBin, UserConfigs: []Config{cfg}}); err == nil {
			t.Fatalf("LambdaT=%v accepted by NewService with UserConfigs", lt)
		}
	}
	// Whole-millisecond (and zero) thresholds still pass.
	for _, lt := range []time.Duration{0, time.Millisecond, 30 * time.Minute} {
		cfg := Config{LambdaC: 18, LambdaT: lt, LambdaA: 0.7}
		if _, err := NewDiversifier(UniBin, g, nil, cfg); err != nil {
			t.Fatalf("LambdaT=%v rejected: %v", lt, err)
		}
	}
}

func TestAutoIDsNeverCollideWithCallerIDs(t *testing.T) {
	g := mustGraph(t, 0.7)
	d, err := NewDiversifier(UniBin, g, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	// A caller-supplied id must be echoed unchanged.
	if got := d.toCore(Post{ID: 7, Author: 0, Time: base}).ID; got != 7 {
		t.Fatalf("caller id rewritten to %d", got)
	}
	// The next auto-assigned id continues past the caller's maximum instead
	// of restarting at 1 (which collided with caller ids before the fix).
	if got := d.toCore(Post{Author: 1, Time: base}).ID; got != 8 {
		t.Fatalf("auto id after caller id 7 = %d, want 8", got)
	}
	// A smaller caller id does not move the high-water mark backwards.
	if got := d.toCore(Post{ID: 3, Author: 2, Time: base}).ID; got != 3 {
		t.Fatalf("caller id rewritten to %d", got)
	}
	if got := d.toCore(Post{Author: 0, Time: base}).ID; got != 9 {
		t.Fatalf("auto id after high-water 8 = %d, want 9", got)
	}
	// Pure auto-assignment starts at 1 as before.
	d2, _ := NewDiversifier(UniBin, g, nil, DefaultConfig())
	if got := d2.toCore(Post{Author: 0, Time: base}).ID; got != 1 {
		t.Fatalf("first auto id = %d, want 1", got)
	}
}
