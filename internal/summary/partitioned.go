// Partitioned summaries: the scale-out path of the summary engine. The
// relation is split into K contiguous horizontal partitions, one MaxEnt
// summary is built per partition — concurrently, on a worker pool — and
// queries are answered by summing the per-partition masked evaluations:
//
//	COUNT(σ_π(I)) ≈ Σ_k n_k · P_π^{(k)} / P^{(k)}.
//
// Counting queries are linear in the data, so partition estimates compose
// by addition exactly; the union of the per-partition models plays the
// role of one summary whose footprint and build time scale out with K.
// Partitioned implements core.Estimator, so the experiment harness and
// cmd/experiment drive it through the same interface as every other
// strategy.

package summary

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/solver"
)

// PartitionedOptions configure BuildPartitioned.
type PartitionedOptions struct {
	// Partitions is K, the number of horizontal partitions (default 4; it
	// is clamped so no partition is empty).
	Partitions int
	// Workers bounds how many per-partition builds run concurrently
	// (default min(K, GOMAXPROCS)).
	Workers int
	// Base configures every per-partition build.
	Base Options
}

// Partitioned is a set of per-partition MaxEnt summaries answering queries
// by summing masked evaluations. It is immutable after BuildPartitioned
// and safe for concurrent query answering.
type Partitioned struct {
	name  string
	sch   *schema.Schema
	n     float64
	parts []*Summary
}

// Partitioned satisfies the shared estimator interface.
var _ core.Estimator = (*Partitioned)(nil)

// BuildPartitioned splits the relation into K contiguous horizontal
// partitions and builds one summary per partition on a worker pool. Every
// partition must build successfully; the first failure aborts the whole
// build.
func BuildPartitioned(rel *relation.Relation, opts PartitionedOptions) (*Partitioned, error) {
	if rel.NumRows() == 0 {
		return nil, errors.New("summary: cannot summarize an empty relation")
	}
	if opts.Partitions == 0 {
		opts.Partitions = 4
	}
	if opts.Partitions < 1 {
		return nil, fmt.Errorf("summary: Partitions must be positive, got %d", opts.Partitions)
	}
	chunks := rel.Partition(opts.Partitions)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	parts := make([]*Summary, len(chunks))
	errs := runIndexed(len(chunks), workers, func(i int) error {
		var err error
		parts[i], err = Build(chunks[i], opts.Base)
		return err
	})
	for i, err := range errs {
		if err != nil {
			// 1-based to match the per-partition reports cmd/experiment prints.
			return nil, fmt.Errorf("summary: partition %d/%d: %w", i+1, len(chunks), err)
		}
	}

	return &Partitioned{
		name:  fmt.Sprintf("partitioned[K=%d]×%s", len(parts), parts[0].Name()),
		sch:   rel.Schema(),
		n:     float64(rel.NumRows()),
		parts: parts,
	}, nil
}

// Name identifies the partitioned configuration in reports.
func (p *Partitioned) Name() string { return p.name }

// Schema returns the schema the summaries were built over.
func (p *Partitioned) Schema() *schema.Schema { return p.sch }

// NumPartitions returns K.
func (p *Partitioned) NumPartitions() int { return len(p.parts) }

// Partition returns the k-th per-partition summary. Callers must treat it
// as read-only.
func (p *Partitioned) Partition(k int) *Summary { return p.parts[k] }

// SolverReports returns the per-partition solve outcomes, index-aligned
// with the partitions.
func (p *Partitioned) SolverReports() []solver.Report {
	out := make([]solver.Report, len(p.parts))
	for i, s := range p.parts {
		out[i] = s.SolverReport()
	}
	return out
}

// Converged reports whether every per-partition solve converged.
func (p *Partitioned) Converged() bool {
	for _, s := range p.parts {
		if !s.SolverReport().Converged {
			return false
		}
	}
	return true
}

// ApproxBytes sums the per-partition summary footprints.
func (p *Partitioned) ApproxBytes() int64 {
	var total int64
	for _, s := range p.parts {
		total += s.ApproxBytes()
	}
	return total
}

// runIndexed runs fn for every index in [0, n) on at most workers
// goroutines and returns the per-index errors. Callers collect results
// into index-addressed slices, so reductions run in fixed index order and
// answers stay deterministic regardless of goroutine scheduling.
func runIndexed(n, workers int, fn func(i int) error) []error {
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return errs
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

// forEachPartition runs fn for every partition index — concurrently when
// there is more than one partition (the per-partition summaries are
// read-only after build, so fan-out is safe) — and returns the first error
// by partition order.
func (p *Partitioned) forEachPartition(fn func(k int) error) error {
	for _, err := range runIndexed(len(p.parts), len(p.parts), fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// EstimateCount answers COUNT(σ_π(I)) as the sum of the per-partition
// estimates Σ_k n_k · P_π^{(k)} / P^{(k)}, evaluated concurrently across
// partitions. A nil predicate returns the exact total cardinality.
func (p *Partitioned) EstimateCount(pred *query.Predicate) (float64, error) {
	if pred == nil {
		return p.n, nil
	}
	ests := make([]float64, len(p.parts))
	err := p.forEachPartition(func(k int) error {
		est, err := p.parts[k].EstimateCount(pred)
		ests[k] = est
		return err
	})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, est := range ests {
		total += est
	}
	return total, nil
}

// EstimateGroupBy merges the per-partition group-by answers — computed
// concurrently across partitions — by summing the estimates of identical
// groups.
func (p *Partitioned) EstimateGroupBy(groupAttrs []int, pred *query.Predicate) ([]core.GroupEstimate, error) {
	partial := make([][]core.GroupEstimate, len(p.parts))
	err := p.forEachPartition(func(k int) error {
		groups, err := p.parts[k].EstimateGroupBy(groupAttrs, pred)
		partial[k] = groups
		return err
	})
	if err != nil {
		return nil, err
	}
	return core.MergeGroupEstimates(partial...), nil
}
