// Command perfbench is the repository's benchmark. It builds the
// serving stack in-process through its public constructors, drives it
// over loopback TCP with one of three workloads, checks every answer, and
// prints each metric named in BENCHMARK.json. With --trace 1 it records
// spans at every layer boundary and prints the per-layer split instead.
// Run it from the repository root, where it reads BENCHMARK.json and keeps
// its scratch files under .bench_build/:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int    // client concurrency cap: nproc
	dir      string // scratch directory, removed at exit
}

// setupRounds is how many times each run sets its stack up; set-up
// figures are the median of the rounds.
const setupRounds = 3

var workloads = map[string]func(config, *report) error{
	"explore":   runExplore,
	"dashboard": runDashboard,
	"ingest":    runIngest,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run() error {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: explore, dashboard or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: draws the queries and ingest batches")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer split")
	flag.Parse()
	cfg.trace = traceFlag == 1
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	cfg.workers = runtime.NumCPU()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	if cfg.dir, err = os.MkdirTemp(".bench_build", "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)

	rep := newReport(cfg.workload, cfg.seed, cfg.trace)
	rep.fact("host: %d CPUs, GOMAXPROCS=%d, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	started := time.Now()
	cpu0, cpuOK := readCPUTimes()
	if err := fn(cfg, rep); err != nil {
		return err
	}
	if cpu1, ok := readCPUTimes(); ok && cpuOK {
		rep.fact("host CPU stolen by other guests during the run: %.1f%%", 100*stealShare(cpu0, cpu1))
	}
	rep.fact("run took %.1fs", time.Since(started).Seconds())
	if err := rep.print(os.Stdout, sp); err != nil {
		return err
	}
	if !rep.correct() {
		os.Exit(1)
	}
	return nil
}

// setupClient is the client used outside measured windows (set-up,
// expected answers); it is not counted against the connection budget.
var setupClient = &http.Client{Timeout: 30 * time.Second}
