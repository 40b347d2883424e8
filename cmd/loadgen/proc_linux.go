package main

import (
	"os/exec"
	"syscall"
	"time"
)

// killWithParent makes the kernel SIGKILL the child when the loadgen dies
// without running its own cleanup (SIGKILL from a driver's timeout).
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// sleepUntil blocks until due. time.Sleep wakes through the netpoller, whose
// timeout has millisecond granularity — longer than the open-loop send
// interval — so the bulk of the wait is a nanosleep(2) on this thread and the
// last stretch a spin on the clock.
func sleepUntil(due time.Time) {
	const spin = 200 * time.Microsecond
	if wait := time.Until(due) - spin; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an early EINTR return only lengthens the spin
	}
	for time.Now().Before(due) {
	}
}
