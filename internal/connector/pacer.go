package connector

import (
	"fmt"
	"time"
)

// Pacer converts recorded post timestamps into wall-clock waits under a
// configurable speedup: the first timestamp it sees anchors the schedule, and
// Wait blocks until each subsequent timestamp is due. The file input uses it
// to replay an NDJSON stream at recorded (or compressed) speed. The zero
// clock uses the wall clock; tests inject a virtual one via SetClock.
type Pacer struct {
	speedup float64

	now   func() time.Time
	sleep func(d time.Duration, stop <-chan struct{}) bool

	started   bool
	startWall time.Time
	startPost int64 // first timestamp seen (millis)
}

// NewPacer builds a pacer. speedup must be positive; 1 replays in real time,
// larger values compress time.
func NewPacer(speedup float64) (*Pacer, error) {
	if speedup <= 0 {
		return nil, fmt.Errorf("connector: speedup must be positive, got %v", speedup)
	}
	return &Pacer{speedup: speedup, now: time.Now, sleep: sleepOrStop}, nil
}

// sleepOrStop waits d, returning early with false when stop closes.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// SetClock injects a virtual clock (for tests). Both funcs must be non-nil;
// a virtual sleep returns at once, so it ignores stop.
func (p *Pacer) SetClock(now func() time.Time, sleep func(time.Duration)) {
	p.now = now
	p.sleep = func(d time.Duration, _ <-chan struct{}) bool {
		sleep(d)
		return true
	}
}

// Wait blocks until the post timestamp timeMillis is due, or until stop
// closes, and reports whether the timestamp came due (false: stopped first).
// The first call returns at once and anchors the schedule.
func (p *Pacer) Wait(timeMillis int64, stop <-chan struct{}) bool {
	if !p.started {
		p.started = true
		p.startWall = p.now()
		p.startPost = timeMillis
		return true
	}
	due := p.startWall.Add(time.Duration(float64(timeMillis-p.startPost)/p.speedup) * time.Millisecond)
	if wait := due.Sub(p.now()); wait > 0 {
		return p.sleep(wait, stop)
	}
	return true
}
