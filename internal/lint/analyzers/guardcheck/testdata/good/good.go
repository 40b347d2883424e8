// Package good mirrors the locking shapes of the real engines
// (internal/stream/engine.go, parallel.go, internal/httpapi/sse.go) and must
// produce no diagnostics: it is the no-false-positive half of the guardcheck
// suite.
package good

import (
	"os"
	"sync"
)

type engine struct {
	// mu guards: total, done, subs
	mu    sync.Mutex
	total int
	done  bool
	subs  map[int][]int

	// ch is owned by the worker goroutine and intentionally unguarded.
	ch chan int
}

func expensive() {}

// Offer is the lock/defer-unlock idiom: the deferred Unlock runs at return,
// so every statement in the body executes under the lock.
func (e *engine) Offer(v int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return false
	}
	e.total += v
	return true
}

// TryOffer is the early-unlock-and-return shape of ParallelMultiEngine.Offer:
// each branch unlocks exactly once before returning, including the select's
// non-blocking default.
func (e *engine) TryOffer(v int) bool {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return false
	}
	e.total += v
	select {
	case e.ch <- v:
		e.mu.Unlock()
		return true
	default:
		e.total -= v
		e.mu.Unlock()
		return false
	}
}

// Reacquire drops the lock across a slow call and re-locks before touching
// guarded state again.
func (e *engine) Reacquire() int {
	e.mu.Lock()
	t := e.total
	e.mu.Unlock()
	expensive()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.total = t
	return e.total
}

// Fanout ranges over a guarded map under the lock (broker.publish shape).
func (e *engine) Fanout() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, posts := range e.subs {
		n += len(posts)
	}
	return n
}

// MustTotal's panic branch terminates, so it does not pollute the join.
func (e *engine) MustTotal() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.subs == nil {
		panic("closed")
	}
	return e.total
}

// FatalPath exercises the other terminating calls the checker must know
// about: the branch ends the process, so the fall-through stays locked.
func (e *engine) FatalPath() int {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		os.Exit(1)
	}
	defer e.mu.Unlock()
	return e.total
}

// StartWorker's goroutine locks for itself — the closure starts with no
// locks held and must not inherit the creator's critical section.
func (e *engine) StartWorker() {
	go func() {
		for range e.ch {
			e.mu.Lock()
			e.total++
			e.mu.Unlock()
		}
	}()
}

// Snapshot reads every guarded field under one critical section and returns
// copies (the ParallelMultiEngine.WorkerSnapshots shape).
func (e *engine) Snapshot() (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.total, e.done
}
