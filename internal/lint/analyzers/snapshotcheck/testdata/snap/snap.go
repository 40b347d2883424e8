// Package snap exercises snapshotcheck: Snapshot-style methods on
// guard-annotated structs must return value copies of guarded state, never
// references into it. The clean methods mirror
// ParallelMultiEngine.WorkerSnapshots; the seeded ones return each aliasing
// shape the checker knows.
package snap

import "sync"

// Counters is a pure value type, like metrics.Counters: copying it by
// assignment shares nothing.
type Counters struct {
	Accepted uint64
	Rejected uint64
}

type engine struct {
	// mu guards: counters, timelines, buf, state
	mu        sync.Mutex
	counters  Counters
	timelines map[int][]int
	buf       []byte
	state     *Counters
}

// Snapshot is the composite-literal construction shape: value fields copy,
// reference fields are deep-copied under the lock.
type Snapshot struct {
	Counters  Counters
	Timelines map[int][]int
}

func (e *engine) GoodSnapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	tl := make(map[int][]int, len(e.timelines))
	for k, v := range e.timelines {
		cp := make([]int, len(v))
		copy(cp, v)
		tl[k] = cp
	}
	return Snapshot{Counters: e.counters, Timelines: tl}
}

// BadSnapshot leaks the live map through the composite literal.
func (e *engine) BadSnapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Snapshot{
		Counters:  e.counters,
		Timelines: e.timelines, // want `snapshot returns guarded field timelines by reference`
	}
}

// PtrSnapshot hands out a pointer into guarded state.
func (e *engine) PtrSnapshot() *Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &e.counters // want `snapshot returns the address of guarded field counters`
}

// BufSnapshot reslices the guarded buffer — same backing array.
func (e *engine) BufSnapshot() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buf[:] // want `snapshot returns a slice of guarded field buf`
}

// StateSnapshot returns a guarded pointer field directly.
func (e *engine) StateSnapshot() *Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state // want `snapshot returns guarded field state by reference`
}

// CountersSnapshot returns a guarded *value* field — copies by assignment,
// so it is clean even without further ceremony.
func (e *engine) CountersSnapshot() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counters
}

// DerivedSnapshot dereferences a call result — the `*w.md.Counters()` copy
// idiom from ParallelMultiEngine.WorkerSnapshots — and is clean.
func (e *engine) DerivedSnapshot() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return *e.countersRef()
}

func (e *engine) countersRef() *Counters { return e.state }

// WorkerSnapshots matches the plural form and returns a locally built slice.
func (e *engine) WorkerSnapshots() []Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Counters, 1)
	out[0] = e.counters
	return out
}

// Timelines is not a Snapshot-named method: handing out the live map is a
// (deliberate) API choice outside this checker's contract, and it must not
// fire here.
func (e *engine) Timelines() map[int][]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.timelines
}
