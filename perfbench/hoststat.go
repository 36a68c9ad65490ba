package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuTimes is the host-wide CPU tick counters of /proc/stat: all ticks
// and the ticks stolen by the hypervisor for other guests.
type cpuTimes struct{ total, steal int64 }

// readCPUTimes returns false where /proc/stat is not available.
func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare is the share of CPU time stolen from this guest between two
// readings: time the benchmark's processes wanted to run but the host ran
// something else.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuMeter measures the process CPU time of a measured window.
type cpuMeter struct {
	start, end time.Duration
	ok         bool
}

func startCPU() *cpuMeter {
	t, ok := processCPU()
	return &cpuMeter{start: t, ok: ok}
}

func (m *cpuMeter) stop() {
	t, ok := processCPU()
	m.end, m.ok = t, m.ok && ok
}

// report adds cpu_us_per_op: process CPU time (servers, router and load
// generator together) per operation completed in the window. Unlike
// latency, it does not grow when the host gives CPU to other guests.
func (m *cpuMeter) report(rep *report, ops int, what string) {
	if !m.ok || ops == 0 {
		rep.setInvalid("cpu_us_per_op: process CPU time not measurable here")
		return
	}
	used := m.end - m.start
	rep.e2e["cpu_us_per_op"] = metric{Value: float64(used) / 1e3 / float64(ops), Unit: "us", Note: fmt.Sprintf("%.2f CPU-seconds over %d %s", used.Seconds(), ops, what)}
}
