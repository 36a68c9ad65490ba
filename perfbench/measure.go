package main

import (
	"fmt"
	"math"
)

// setupMetrics reports the set-up figures: medians over the rounds.
func setupMetrics(rep *report, setupS, heapMB []float64) {
	rep.e2e["setup_s"] = metric{Value: median(setupS), Unit: "s", Note: fmt.Sprintf("median of %d set-ups %v", len(setupS), roundAll(setupS, 3))}
	rep.e2e["setup_heap_mb"] = metric{Value: median(heapMB), Unit: "MB", Note: fmt.Sprintf("heap the set-up added (live heap after forced GCs), median of %d", len(heapMB))}
}

// readMetrics reports client-observed read latency (failed reads count as
// +Inf) and the answered rate over the measured window.
func readMetrics(rep *report, samples []sample) {
	ms := make([]float64, len(samples))
	ok := 0
	for i, s := range samples {
		ms[i] = math.Inf(1)
		if s.OK {
			ms[i] = float64(s.Latency()) / 1e6
			ok++
		}
	}
	rep.latencyMetrics(rep.e2e, "read_p50_ms", "read_p99_ms", ms, "reads")
	rep.e2e["read_qps"] = metric{Value: float64(ok) / windowOf(samples), Unit: "queries/s", Note: fmt.Sprintf("%d reads answered over a %.2fs window", ok, windowOf(samples))}
}

func countOK(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.OK {
			n++
		}
	}
	return n
}

// windowOf is the measured window: from the first operation due to the
// last one finished.
func windowOf(samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	lo, hi := samples[0].Due, samples[0].Done
	for _, s := range samples {
		lo, hi = min(lo, s.Due), max(hi, s.Done)
	}
	return (hi - lo).Seconds()
}

// openLoopValidity reports how late the generator ran and how many
// connections were dialled, and marks the run invalid when the generator
// fell behind its schedule or the client exceeded its connection budget.
func openLoopValidity(rep *report, samples []sample, cl *client, dialsBefore int64, budget int) {
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = float64(s.Late()) / 1e6
	}
	p99 := percentile(late, 99)
	rep.layer["loadgen.late_p99_ms"] = metric{Value: p99.Value, Unit: "ms", Note: fmt.Sprintf("dispatch time - due time, p99 of %d", p99.N)}
	rep.fact("generator lateness p99 %.3f ms over %d operations (limit %.0f ms)", p99.Value, p99.N, lateLimitMS)
	if p99.Value > lateLimitMS {
		rep.setInvalid("load generator fell behind: lateness p99 %.2f ms > %.0f ms", p99.Value, lateLimitMS)
	}
	connectionBudget(rep, cl, dialsBefore, budget)
}

func connectionBudget(rep *report, cl *client, dialsBefore int64, budget int) {
	dials := cl.dials.Load()
	rep.layer["loadgen.conns"] = metric{Value: float64(dials), Unit: "count", Note: fmt.Sprintf("connections dialled (budget %d)", budget)}
	rep.fact("connections dialled: %d (%d during the measured window), budget %d", dials, dials-dialsBefore, budget)
	if dials > int64(budget) {
		rep.setInvalid("client dialled %d connections, budget is %d", dials, budget)
	}
}

// layerMedian reports the median of a per-layer sample with its p99.
func layerMedian(rep *report, name, unit string, xs []float64, what string) {
	if len(xs) == 0 {
		rep.noWork("no "+what+" in the measured window", name)
		return
	}
	p50, p99 := percentile(xs, 50), percentile(xs, 99)
	rep.layer[name] = metric{Value: p50.Value, Unit: unit, Note: fmt.Sprintf("median of %d (%s); p99 %.4g", p50.N, what, p99.Value)}
}

// traceOverhead compares the traced and the untraced half (tracedOp) of
// the same traced run.
func traceOverhead(rep *report, samples []sample, traced func(i int) bool) {
	var withSpan, plain []float64
	for i, s := range samples {
		if !s.OK {
			continue
		}
		if traced(i) {
			withSpan = append(withSpan, float64(s.Latency())/1e3)
		} else {
			plain = append(plain, float64(s.Latency())/1e3)
		}
	}
	rep.layer["trace.overhead_us"] = metric{Value: median(withSpan) - median(plain), Unit: "us", Note: fmt.Sprintf("median traced %.1f us - median untraced %.1f us, same run", median(withSpan), median(plain))}
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}
