package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/experiment"
)

// Explore: one node, no router. Single-query JSON reads, every fourth a
// group-by, mostly distinct, sent open loop at a fixed rate.
const (
	exploreRate    = 500.0 // reads per second
	warmupSeconds  = 1.0
	lateLimitMS    = 50.0 // generator lateness (p99) past which a run is invalid
	qualityQueries = 1000 // queries scored against the exact answers
)

func runExplore(cfg config, rep *report) error {
	sch := flightsSchema()
	nWarm := int(exploreRate * warmupSeconds)
	nRun := int(exploreRate * cfg.seconds)
	qs := workloadQueries(sch, nWarm+nRun, querySeed(cfg.seed))
	reads, err := encodeReads(qs)
	if err != nil {
		return err
	}
	warm, measured := reads[:nWarm], reads[nWarm:]
	d := newDigest()
	d.relation(workloadRelation())
	d.queries(qs)
	rep.fact("inputs: digest %s (relation %d rows, %d queries: %d warm-up + %d measured)", d.hex(), baseRows, len(qs), nWarm, nRun)
	rep.fact("repeated queries: %.4f of the measured stream (node result cache holds 4096)", repeatShare(qs[nWarm:]))

	var tr *tracer
	var inf *inflight
	if cfg.trace {
		tr, inf = newTracer(), newInflight()
	}
	st, setupS, _, heapMB, err := setups(setupRounds, stackConfig{tr: tr, dir: cfg.dir}, setupClient)
	if err != nil {
		return err
	}
	defer st.close()
	setupMetrics(rep, setupS, heapMB)
	sum, err := maxent(st.primary)
	if err != nil {
		return err
	}
	if tr != nil {
		if _, err := st.primary.Swap(maxentName, &tracedEstimator{Estimator: sum, t: tr, inf: inf}, sch); err != nil {
			return err
		}
	}

	cl := newClient(cfg.workers)
	defer cl.close()
	send := func(rs []readReq, answers []readAnswer, spans []span) lane {
		return lane{due: schedule(len(rs), exploreRate), workers: cfg.workers, do: func(i int) bool {
			traced := tr
			if !tracedOp(i) {
				traced = nil // the untraced half: the overhead baseline
			}
			a, sp := sendRead(cl.Client, st.readURL, rs[i], traced, inf)
			if !a.OK {
				rep.failure("%s: %s", rs[i].path, a.Err)
			}
			answers[i], spans[i] = a, sp
			return a.OK
		}}
	}
	warmAnswers := make([]readAnswer, len(warm))
	runOpenLoop([]lane{send(warm, warmAnswers, make([]span, len(warm)))})
	dialsBefore := cl.dials.Load()
	if tr != nil {
		tr.reset()
	}
	answers := make([]readAnswer, len(measured))
	clientSpans := make([]span, len(measured))
	cpu := startCPU()
	samples := runOpenLoop([]lane{send(measured, answers, clientSpans)})[0]
	cpu.stop()
	cpu.report(rep, countOK(samples), "reads")

	// Answer checks: every served answer, warm-up included, must be
	// bit-identical to a direct call on the same summary.
	for _, a := range answers {
		rep.attempted++
		if !a.OK {
			rep.failed++
		}
	}
	exp := newExpected(sum)
	for i, a := range append(warmAnswers, answers...) {
		if !a.OK {
			continue
		}
		same, err := exp.check(a, reads[i])
		if err != nil {
			return err
		}
		if !same {
			rep.mismatch("explore: %s answered %+v, in-process answer differs", reads[i].key, a)
		}
	}
	readMetrics(rep, samples)
	openLoopValidity(rep, samples, cl, dialsBefore, cfg.workers)
	if err := quality(rep, sum, qs[nWarm:]); err != nil {
		return err
	}

	if tr != nil {
		cached := 0
		for _, a := range answers {
			if a.Cached {
				cached++
			}
		}
		rep.layer["server.cache_hit_ratio"] = metric{Value: float64(cached) / float64(len(answers)), Unit: "ratio",
			Note: fmt.Sprintf("%d of %d answers flagged cached by the node", cached, len(answers))}
		exploreSpans(rep, tr, clientSpans)
		traceOverhead(rep, samples, tracedOp)
		if err := offlineLayers(rep, st.rel, sum, measured, cfg.dir); err != nil {
			return err
		}
		rep.noWork("no router, replica or ingest on explore",
			"fleet.router_self_us", "fleet.router_cache_hit_ratio", "fleet.forward_us", "fleet.sync_ms",
			"server.ingest_self_ms", "summary.refresh_ms", "solver.refresh_sweeps")
	}
	return nil
}

// quality scores the served summary against the exact answers on the
// first qualityQueries queries of the measured stream. Served answers are
// bit-identical to the summary's (checked above), so this scores them.
func quality(rep *report, sum core.Estimator, qs []experiment.Query) error {
	if len(qs) > qualityQueries {
		qs = qs[:qualityQueries]
	}
	res, err := experiment.Run(exact.New(workloadRelation()), []core.Estimator{sum}, qs, experiment.Options{Workers: 1})
	if err != nil {
		return err
	}
	var er experiment.EstimatorReport
	for _, e := range res.Estimators {
		if e.Estimator == sum.Name() {
			er = e
		}
	}
	rep.e2e["count_rel_err"] = metric{Value: er.CountErrors.Mean, Unit: "ratio", Note: fmt.Sprintf("mean symmetric relative error of %d count answers vs exact", er.CountErrors.Count)}
	rep.e2e["groupby_f1"] = metric{Value: er.MeanFMeasure, Unit: "ratio",
		Note: "mean group-existence F-measure of the group-by answers (rare vs nonexistent)"}
	rep.e2e["summary_bytes"] = metric{Value: float64(sum.ApproxBytes()), Unit: "bytes", Note: "ApproxBytes of the served summary"}
	return nil
}

// exploreSpans derives the node-side split of traced reads: transport
// (client span minus node span), node self time (node span minus the
// estimator calls it made) and the estimator calls themselves.
func exploreSpans(rep *report, tr *tracer, clientSpans []span) {
	ix := indexSpans(tr.snapshot())
	var transport, self, counts, groups []float64
	for _, c := range clientSpans {
		if c.ID == 0 {
			continue
		}
		nodes := ix.childrenIn(c.ID, layerNode)
		if len(nodes) != 1 {
			continue
		}
		n := nodes[0]
		transport = append(transport, usOf(c.dur()-n.dur()))
		est := append(ix.childrenIn(c.ID, layerCount), ix.childrenIn(c.ID, layerGroupBy)...)
		self = append(self, usOf(selfTime(n, est)))
		for _, e := range est {
			if e.Layer == layerCount {
				counts = append(counts, usOf(e.dur()))
			} else {
				groups = append(groups, usOf(e.dur()))
			}
		}
	}
	layerMedian(rep, "transport.read_us", "us", transport, "client span - node span")
	layerMedian(rep, "server.handler_self_us", "us", self, "node span - estimator spans")
	layerMedian(rep, "summary.count_us", "us", counts, "EstimateCount span")
	layerMedian(rep, "summary.groupby_us", "us", groups, "EstimateGroupBy span")
}
