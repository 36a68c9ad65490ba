//go:build !linux

package main

import "time"

// sleepPrecise falls back to the runtime timer off Linux.
func sleepPrecise(d time.Duration) { time.Sleep(d) }

// processCPU is not measured off Linux.
func processCPU() (time.Duration, bool) { return 0, false }
