//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// killWithParent has no portable equivalent; context cancellation still
// kills children on every exit path the loadgen controls.
func killWithParent(*exec.Cmd) {}

// sleepUntil blocks until due, at the runtime timer's granularity.
func sleepUntil(due time.Time) { time.Sleep(time.Until(due)) }
