package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
)

// spec is the part of BENCHMARK.json the program reads: the metric names
// and units it must report, in order.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported figure; Note says how it was taken, with the
// sample count behind it.
type metric struct {
	Value float64
	Unit  string
	Note  string
}

// report collects one run's figures, checks and validity findings.
type report struct {
	workload string
	seed     int64
	trace    bool
	facts    []string // input digest, repeated share, connections, ...

	e2e   map[string]metric
	layer map[string]metric

	attempted  int
	failed     int
	idle       map[string]string // per-layer metrics the workload gives no work, with why
	mismatches []string          // answer checks that failed

	failMu   sync.Mutex
	failures []string // the first failed operations' errors
	invalid  []string // reasons the measurement cannot be trusted
}

func newReport(workload string, seed int64, trace bool) *report {
	return &report{workload: workload, seed: seed, trace: trace,
		e2e: make(map[string]metric), layer: make(map[string]metric)}
}

func (r *report) fact(format string, args ...any) {
	r.facts = append(r.facts, fmt.Sprintf(format, args...))
}

func (r *report) mismatch(format string, args ...any) {
	if len(r.mismatches) < 1000 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// failure records why an operation failed; workers call it concurrently.
// The count comes from the samples; the first few reasons are printed.
func (r *report) failure(format string, args ...any) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// noWork records layers the workload does not exercise; they report 0.
func (r *report) noWork(why string, names ...string) {
	if r.idle == nil {
		r.idle = make(map[string]string)
	}
	for _, n := range names {
		r.idle[n] = why
	}
}

func (r *report) setInvalid(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// latencyMetrics adds the median and p99 of a latency sample (failed
// operations count as +Inf, over any limit) under the given names, and
// marks the run invalid when p99 has fewer than minTail samples beyond it.
func (r *report) latencyMetrics(dst map[string]metric, p50Name, p99Name string, ms []float64, what string) {
	p50, p99 := percentile(ms, 50), percentile(ms, 99)
	top := highestPercentile(ms, []float64{99.9, 99, 95, 90})
	dst[p50Name] = metric{Value: p50.Value, Unit: "ms", Note: fmt.Sprintf("median of %d %s", p50.N, what)}
	dst[p99Name] = metric{Value: p99.Value, Unit: "ms", Note: fmt.Sprintf("p99 of %d %s, %d beyond; highest supported p%g=%.4g ms", p99.N, what, p99.Tail, top.P, top.Value)}
	if !p99.Supported() {
		r.setInvalid("%s: only %d %s, p99 has %d samples beyond it (need %d)", p99Name, p99.N, what, p99.Tail, minTail)
	}
}

func (r *report) correct() bool { return len(r.mismatches) == 0 && len(r.invalid) == 0 }

// print writes the human-readable lines and, last, the JSON result line
// carrying the metrics spec names for this mode.
func (r *report) print(w io.Writer, sp *spec) error {
	fmt.Fprintf(w, "workload=%s seed=%d trace=%d\n", r.workload, r.seed, b2i(r.trace))
	for _, f := range r.facts {
		fmt.Fprintf(w, "  %s\n", f)
	}
	section := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := m[n]
			fmt.Fprintf(w, "  %-30s %14.6g %-10s %s\n", n, v.Value, v.Unit, v.Note)
		}
	}
	section("end-to-end", r.e2e)
	section("per-layer", r.layer)
	fail := 0.0
	if r.attempted > 0 {
		fail = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-30s %14.6g %-10s %d failed of %d attempted\n", "fail_ratio", fail, "ratio", r.failed, r.attempted)
	for _, m := range r.failures {
		fmt.Fprintf(w, "FAILED OPERATION: %s\n", m)
	}
	for _, m := range r.mismatches {
		fmt.Fprintf(w, "ANSWER CHECK FAILED: %s\n", m)
	}
	for _, m := range r.invalid {
		fmt.Fprintf(w, "INVALID RUN: %s\n", m)
	}

	want, have := sp.EndToEnd, r.e2e
	if r.trace {
		want, have = sp.PerLayer, r.layer
	}
	metrics := make(map[string]any, len(want))
	var missing []string
	for _, sm := range want {
		v, ok := have[sm.Name]
		if why, idle := r.idle[sm.Name]; !ok && idle && r.trace {
			v, ok = metric{Unit: sm.Unit}, true
			fmt.Fprintf(w, "  %-30s %14d %-10s no work on this workload: %s\n", sm.Name, 0, sm.Unit, why)
		}
		if !ok {
			missing = append(missing, sm.Name)
			continue
		}
		if v.Unit != sm.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", sm.Name, v.Unit, sm.Unit)
		}
		val := v.Value
		if math.IsInf(val, 0) || math.IsNaN(val) {
			val = math.MaxFloat64 // a failed operation: over any limit
		}
		metrics[sm.Name] = map[string]any{"value": val, "unit": sm.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s does not measure %s", r.workload, strings.Join(missing, ", "))
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
