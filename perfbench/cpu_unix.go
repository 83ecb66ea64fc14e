//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time, user plus system, that every thread
// of the process has used so far. Unlike wall time it leaves out the
// time a virtual CPU spent descheduled by its host (steal), which on a
// shared machine moved identical runs by a third or more.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
