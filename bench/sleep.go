//go:build linux

package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepFor blocks the calling thread in nanosleep(2). time.Sleep will not
// do: an otherwise idle Go process waits for its timers in epoll_wait, whose
// timeout has millisecond resolution, so a 100 us sleep takes over 1 ms. The
// thread's timer slack (50 us by default) is lowered first, which costs one
// cheap system call and brings the median wake-up lateness to about 25 us.
func sleepFor(d time.Duration) {
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
