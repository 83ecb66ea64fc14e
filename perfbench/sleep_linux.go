package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling OS thread in nanosleep(2). The Go
// runtime's own timers wake a sleeping program through its network
// poller, whose wait is in whole milliseconds, so time.Sleep of a few
// hundred microseconds oversleeps by up to a millisecond when the
// process is idle; that lateness would be charged to every open-loop
// request. nanosleep wakes within tens of microseconds.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
