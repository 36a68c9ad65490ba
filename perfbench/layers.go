package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/polynomial"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/store"
)

// Offline layer probes: timed calls into each build-stage module's public
// functions on the workload relation, the codec on the workload's own
// batch frames, and the snapshot store on the served summary.
const (
	probeRounds = 3  // build-stage calls per probe; the median is reported
	storeRounds = 5  // Save/Load pairs
	codecFrames = 64 // frames decoded and encoded by the codec probe
	frameItems  = 32
)

func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return float64(time.Since(start)) / 1e6, err
}

// offlineLayers reports the build-stage, codec and store layers.
func offlineLayers(rep *report, rel *relation.Relation, served core.Estimator, reads []readReq, dir string) error {
	opts := summaryOptions()
	var scan, sel, comp, solve []float64
	var terms int
	var last solver.Report
	for r := 0; r < probeRounds; r++ {
		var set *stats.Set
		ms, _ := timeIt(func() error { set = stats.NewSet(rel); return nil })
		scan = append(scan, ms)
		ms, err := timeIt(func() error {
			_, err := stats.SelectMulti(rel, set, opts.PairBudget, opts.PerPairBudget, opts.Policy, opts.Heuristic)
			return err
		})
		if err != nil {
			return fmt.Errorf("stats.SelectMulti: %w", err)
		}
		sel = append(sel, ms)
		var c *polynomial.Compressed
		ms, err = timeIt(func() (err error) { c, err = polynomial.NewCompressed(set.DomainSizes, set.MultiSpecs()); return })
		if err != nil {
			return fmt.Errorf("polynomial.NewCompressed: %w", err)
		}
		comp = append(comp, ms)
		terms = c.NumTerms()
		sys := polynomial.NewSystem(c)
		cons := constraintsOf(set)
		sopts := opts.Solver
		sopts.N = float64(set.N)
		ms, err = timeIt(func() (err error) { last, err = solver.Solve(sys, cons, sopts); return })
		if err != nil {
			return fmt.Errorf("solver.Solve: %w", err)
		}
		solve = append(solve, ms)
	}
	note := fmt.Sprintf("median of %d calls on the %d-row workload relation", probeRounds, rel.NumRows())
	rep.layer["stats.scan_ms"] = metric{Value: median(scan), Unit: "ms", Note: "stats.NewSet, " + note}
	rep.layer["stats.select_ms"] = metric{Value: median(sel), Unit: "ms", Note: "stats.SelectMulti, " + note}
	rep.layer["polynomial.compress_ms"] = metric{Value: median(comp), Unit: "ms", Note: "polynomial.NewCompressed, " + note}
	rep.layer["polynomial.terms"] = metric{Value: float64(terms), Unit: "count", Note: "terms of the compressed polynomial"}
	rep.layer["solver.solve_ms"] = metric{Value: median(solve), Unit: "ms", Note: "solver.Solve from cold, " + note}
	rep.layer["solver.sweeps"] = metric{Value: float64(last.Sweeps), Unit: "count", Note: fmt.Sprintf("sweeps of the cold solve (budget %d, converged=%t)", opts.Solver.MaxSweeps, last.Converged)}
	rep.layer["solver.max_violation"] = metric{Value: last.MaxViolation, Unit: "ratio", Note: "final max relative constraint violation"}

	if err := codecLayers(rep, served, reads); err != nil {
		return err
	}
	return storeLayers(rep, served, filepath.Join(dir, "probe-store"))
}

// constraintsOf builds one expected-value constraint per statistic, as
// summary.Build does.
func constraintsOf(set *stats.Set) []solver.Constraint {
	cons := make([]solver.Constraint, 0, set.NumStatistics())
	for attr, col := range set.OneD {
		for value, target := range col {
			cons = append(cons, solver.OneDConstraint(attr, value, target))
		}
	}
	for j, st := range set.Multi {
		cons = append(cons, solver.MultiConstraint(j, st.Count))
	}
	return cons
}

// codecLayers times query.DecodeBatchAt and query.AppendAnswers per frame
// on frames of the workload's own queries.
func codecLayers(rep *report, est core.Estimator, reads []readReq) error {
	var frames [][]byte
	var answers [][]query.BatchAnswer
	for lo := 0; lo+frameItems <= len(reads) && len(frames) < codecFrames; lo += frameItems {
		items := make([]query.BatchItem, frameItems)
		ans := make([]query.BatchAnswer, frameItems)
		for i, r := range reads[lo : lo+frameItems] {
			items[i] = query.BatchItem{Pred: r.q.Pred, GroupBy: r.q.GroupBy}
			a, err := answerOf(est, items[i])
			if err != nil {
				return err
			}
			ans[i] = a
		}
		f, err := query.AppendBatchAt(nil, maxentName, 0, items)
		if err != nil {
			return err
		}
		frames = append(frames, f)
		answers = append(answers, ans)
	}
	var dec, enc []float64
	var buf []byte
	for i, f := range frames {
		start := time.Now()
		if _, _, _, err := query.DecodeBatchAt(bytes.NewReader(f)); err != nil {
			return fmt.Errorf("query.DecodeBatchAt: %w", err)
		}
		dec = append(dec, float64(time.Since(start))/1e3)
		start = time.Now()
		var err error
		if buf, err = query.AppendAnswers(buf[:0], maxentName, answers[i]); err != nil {
			return fmt.Errorf("query.AppendAnswers: %w", err)
		}
		enc = append(enc, float64(time.Since(start))/1e3)
	}
	rep.layer["query.decode_batch_us"] = metric{Value: median(dec), Unit: "us", Note: fmt.Sprintf("DecodeBatchAt per %d-item frame, median of %d", frameItems, len(dec))}
	rep.layer["query.encode_answers_us"] = metric{Value: median(enc), Unit: "us", Note: fmt.Sprintf("AppendAnswers per %d-answer frame, median of %d", frameItems, len(enc))}
	return nil
}

// answerOf answers one batch item in-process, in the batch wire shape.
func answerOf(est core.Estimator, it query.BatchItem) (query.BatchAnswer, error) {
	if len(it.GroupBy) == 0 {
		c, err := est.EstimateCount(it.Pred)
		return query.BatchAnswer{Count: c}, err
	}
	gs, err := est.EstimateGroupBy(it.GroupBy, it.Pred)
	if err != nil {
		return query.BatchAnswer{}, err
	}
	a := query.BatchAnswer{IsGroup: true, Groups: make([]query.BatchGroup, len(gs))}
	for i, g := range gs {
		a.Groups[i] = query.BatchGroup{Values: g.Values, Estimate: g.Estimate}
	}
	return a, nil
}

// storeLayers times Store.Save and Store.Load of the served summary.
func storeLayers(rep *report, est core.Estimator, dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var save, load []float64
	for r := 0; r < storeRounds; r++ {
		var info store.SnapshotInfo
		ms, err := timeIt(func() (err error) { info, err = st.Save(maxentName, est); return })
		if err != nil {
			return fmt.Errorf("store.Save: %w", err)
		}
		save = append(save, ms)
		ms, err = timeIt(func() error { _, _, err := st.Load(maxentName, info.Version); return err })
		if err != nil {
			return fmt.Errorf("store.Load: %w", err)
		}
		load = append(load, ms)
	}
	rep.layer["store.save_ms"] = metric{Value: median(save), Unit: "ms", Note: fmt.Sprintf("Store.Save of the served summary, median of %d", len(save))}
	rep.layer["store.load_ms"] = metric{Value: median(load), Unit: "ms", Note: fmt.Sprintf("Store.Load (restore), median of %d", len(load))}
	return nil
}
