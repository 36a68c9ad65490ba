package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks for d with the kernel's high-resolution timer. The
// runtime's own timers wake with millisecond granularity on Linux, which
// would add up to a millisecond of generator lateness to every
// open-loop request.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only re-checks the schedule
}

// processCPU is the CPU time this process has used, user and system.
// Time the host gives to other guests is not counted in it.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
