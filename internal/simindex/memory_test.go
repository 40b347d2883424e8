//go:build !race

// The heap-footprint and AllocsPerRun assertions live behind !race: the race
// detector instruments allocations and would distort both.

package simindex

import (
	"runtime"
	"testing"

	"firehose/internal/simhash"
)

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// fpOf derives entry id's fingerprint (splitmix64), so expiry can rebuild
// the (fingerprint, id) pair Remove needs without the test holding the
// window in memory it would then measure.
func fpOf(id uint64) simhash.Fingerprint {
	z := id * 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return simhash.Fingerprint(z ^ z>>31)
}

// TestPruneReleasesBucketMemory is the regression test for the bucket-memory
// leak: a burst of distinct fingerprints followed by a quiet steady state
// must not pin the burst's footprint. Before the freelist and map
// compaction, the tables' emptied buckets and grown map bucket arrays
// survived every expiry, so a long-running stream with rotating content held
// memory proportional to its peak, not its window. Expiry runs the way the
// covBin drives it: Remove of the oldest entries, in arrival order. Entry i
// has id i+1 and time i.
func TestPruneReleasesBucketMemory(t *testing.T) {
	idx := mustIndex(t, Params{K: 2, Blocks: 3})
	base := liveHeap()

	var added, expired uint64
	add := func() {
		added++
		idx.Add(Entry{FP: fpOf(added), ID: added, Time: int64(added - 1)})
	}
	expireBefore := func(cutoff int64) {
		for expired < added && int64(expired) < cutoff {
			expired++
			idx.Remove(fpOf(expired), expired)
		}
	}

	// Burst: 60k distinct fingerprints in one window.
	for added < 60_000 {
		add()
	}
	peak := liveHeap() - base
	if peak < 1<<20 {
		t.Fatalf("burst grew the heap by only %d bytes; the test lost its signal", peak)
	}

	// The window passes, then a quiet steady state: ~100 live entries.
	expireBefore(60_000)
	for added < 62_000 {
		add()
		expireBefore(int64(added) - 100)
	}
	after := liveHeap() - base
	runtime.KeepAlive(idx)

	if after > peak/4 {
		t.Fatalf("index retains %d bytes after the burst drained (peak %d); bucket memory is not being released", after, peak)
	}
}

// TestSteadyStateAllocs pins the windowed steady state — one Add and one
// expiry per operation — as (amortized) allocation-free: recycled buckets
// absorb the Add side and in-place shifts the Remove side. A small tolerance
// covers the Go runtime's occasional map housekeeping under churn.
func TestSteadyStateAllocs(t *testing.T) {
	idx := mustIndex(t, Params{K: 3, Blocks: 4})
	const window = 200
	var id uint64
	push := func() {
		id++
		idx.Add(Entry{FP: fpOf(id), ID: id, Time: int64(id) * 10})
		if id > window {
			idx.Remove(fpOf(id-window), id-window)
		}
	}
	for i := 0; i < 2_000; i++ {
		push()
	}
	if avg := testing.AllocsPerRun(2_000, push); avg > 0.05 {
		t.Fatalf("steady-state Add+Remove allocates %.3f objects per op, want ~0", avg)
	}
}
