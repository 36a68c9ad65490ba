package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/server"
)

// Dashboard: primary + pull replica behind one caching router. Binary
// batch frames of 32 items drawn from a hot set of 512 distinct queries
// (below the router's fan-out size and inside its 4096-entry cache), sent
// closed loop by nproc clients that each wait for their reply.
const (
	hotSetSize      = 512
	dashboardFrames = 1024
)

// hotSet draws the first n distinct queries of the seeded workload stream.
func hotSet(sch *schema.Schema, n int, seed int64) []experiment.Query {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	var out []experiment.Query
	for len(out) < n {
		for _, q := range experiment.GenerateWorkload(sch, 4*n, rng) {
			if k := queryKey(q); !seen[k] && len(out) < n {
				seen[k] = true
				out = append(out, q)
			}
		}
	}
	return out
}

// frame is one pre-encoded batch and the hot-set index of each item.
type frame struct {
	body  []byte
	items []int
}

func dashboardInputs(sch *schema.Schema, seed int64) ([]experiment.Query, []frame, error) {
	hot := hotSet(sch, hotSetSize, querySeed(seed))
	rng := rand.New(rand.NewSource(querySeed(seed) + 1))
	frames := make([]frame, dashboardFrames)
	for f := range frames {
		idx := make([]int, frameItems)
		items := make([]query.BatchItem, frameItems)
		for i := range idx {
			idx[i] = rng.Intn(len(hot))
			items[i] = query.BatchItem{Pred: hot[idx[i]].Pred, GroupBy: hot[idx[i]].GroupBy}
		}
		body, err := query.AppendBatchAt(nil, maxentName, 0, items)
		if err != nil {
			return nil, nil, err
		}
		frames[f] = frame{body: body, items: idx}
	}
	return hot, frames, nil
}

// postBatch sends one binary batch frame and decodes the answers.
func postBatch(c *http.Client, url string, body []byte, spanID uint64) ([]query.BatchAnswer, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/query/batch", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", server.BinaryBatchContentType)
	req.Header.Set("Accept", server.BinaryBatchContentType)
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("batch: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	_, answers, err := query.DecodeAnswers(resp.Body)
	return answers, resp.Header, err
}

func sameBatchAnswer(a, b query.BatchAnswer) bool {
	if a.Error != "" || b.Error != "" || a.IsGroup != b.IsGroup ||
		math.Float64bits(a.Count) != math.Float64bits(b.Count) || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i, g := range a.Groups {
		h := b.Groups[i]
		if math.Float64bits(g.Estimate) != math.Float64bits(h.Estimate) || len(g.Values) != len(h.Values) {
			return false
		}
		for j := range g.Values {
			if g.Values[j] != h.Values[j] {
				return false
			}
		}
	}
	return true
}

// dashOp is the client-side record of one dashboard round trip.
type dashOp struct {
	span  span
	items int
	hit   bool
	nodeC int // items a node (not the router cache) flagged cached
}

func runDashboard(cfg config, rep *report) error {
	sch := flightsSchema()
	hot, frames, err := dashboardInputs(sch, cfg.seed)
	if err != nil {
		return err
	}
	d := newDigest()
	d.relation(workloadRelation())
	d.queries(hot)
	for _, f := range frames {
		d.ints(f.items...)
	}
	rep.fact("inputs: digest %s (relation %d rows, hot set %d queries, %d frames of %d)", d.hex(), baseRows, len(hot), len(frames), frameItems)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setupS, coldMS, heapMB, err := setups(setupRounds, stackConfig{fleet: true, tr: tr, dir: cfg.dir}, setupClient)
	if err != nil {
		return err
	}
	defer st.close()
	setupMetrics(rep, setupS, heapMB)
	rep.e2e["cold_start_ms"] = metric{Value: median(coldMS), Unit: "ms", Note: fmt.Sprintf("replica: empty store -> first answer from pulled snapshots, median of %d %v", len(coldMS), roundAll(coldMS, 1))}

	// The primary's answers for the hot set: what every routed answer must
	// equal. The replica must agree with them before timing starts.
	all := make([]query.BatchItem, len(hot))
	for i, q := range hot {
		all[i] = query.BatchItem{Pred: q.Pred, GroupBy: q.GroupBy}
	}
	allFrame, err := query.AppendBatchAt(nil, maxentName, 0, all)
	if err != nil {
		return err
	}
	want, hdr, err := postBatch(setupClient, st.nodeURL, allFrame, 0)
	if err != nil {
		return fmt.Errorf("primary answers: %w", err)
	}
	if len(want) != len(hot) {
		return fmt.Errorf("primary answered %d of %d hot queries", len(want), len(hot))
	}
	wantGen := hdr.Get(server.EstimatorGenerationHeader)
	repl, _, err := postBatch(setupClient, st.replURL, allFrame, 0)
	if err != nil {
		return fmt.Errorf("replica answers: %w", err)
	}
	if len(repl) != len(want) {
		return fmt.Errorf("replica answered %d of %d hot queries", len(repl), len(want))
	}
	for i := range want {
		if !sameBatchAnswer(want[i], repl[i]) {
			rep.mismatch("dashboard: replica answer for hot query %d differs from the primary's", i)
		}
	}

	cl := newClient(cfg.workers)
	defer cl.close()
	ops := make([][]dashOp, cfg.workers)
	mismatches := make([]int, cfg.workers)
	do := func(c, k int) bool {
		f := frames[(c*len(frames)/cfg.workers+k)%len(frames)]
		op := dashOp{items: len(f.items)}
		var id uint64
		if tr != nil && tracedOp(k) {
			op.span = span{ID: tr.newID(), Layer: layerClient, Name: "batch", Start: tr.now()}
			id = op.span.ID
		}
		got, h, err := postBatch(cl.Client, st.routerURL, f.body, id)
		if id != 0 {
			op.span.End = tr.now()
		}
		ok := err == nil && len(got) == len(f.items)
		if !ok {
			rep.failure("batch: %d answers for %d items: %v", len(got), len(f.items), err)
		} else {
			op.hit = h.Get(fleet.RouterCacheHeader) == "hit"
			if g := h.Get(server.EstimatorGenerationHeader); g != "" && g != wantGen {
				rep.failure("batch answered at generation %s, the primary's answers are at %s", g, wantGen)
				ok = false
			}
			for i, a := range got {
				if !sameBatchAnswer(a, want[f.items[i]]) {
					mismatches[c]++
				}
				if !op.hit && a.Cached {
					op.nodeC++
				}
			}
		}
		ops[c] = append(ops[c], op)
		return ok
	}
	// Warm-up: every frame once, so the router cache holds the hot set.
	// Its answers are checked too; only its timings are dropped.
	for k := range frames {
		do(0, k)
	}
	for c := range ops {
		ops[c] = ops[c][:0]
	}
	dialsBefore := cl.dials.Load()
	if tr != nil {
		tr.reset()
	}
	cpu := startCPU()
	samples := runClosedLoop(cfg.workers, time.Duration(cfg.seconds*float64(time.Second)), do)
	cpu.stop()

	var inOrder []dashOp
	for _, o := range ops {
		inOrder = append(inOrder, o...)
	}
	items, hitItems, nodeItems, nodeCached := 0, 0, 0, 0
	ms := make([]float64, len(samples))
	for i, s := range samples {
		rep.attempted++
		ms[i] = math.Inf(1)
		if !s.OK {
			rep.failed++
			continue
		}
		ms[i] = float64(s.Latency()) / 1e6
		op := inOrder[i]
		items += op.items
		if op.hit {
			hitItems += op.items
		} else {
			nodeItems += op.items
			nodeCached += op.nodeC
		}
	}
	bad := 0
	for _, m := range mismatches {
		bad += m
	}
	if bad > 0 {
		rep.mismatch("dashboard: %d routed answers differ from the primary's answer at generation %s", bad, wantGen)
	}
	cpu.report(rep, items, "batch items")
	rep.latencyMetrics(rep.e2e, "read_p50_ms", "read_p99_ms", ms, "round trips")
	window := windowOf(samples)
	rep.e2e["read_qps"] = metric{Value: float64(items) / window, Unit: "queries/s", Note: fmt.Sprintf("batch items answered per second (%d clients, closed loop)", cfg.workers)}
	rep.fact("repeated queries: %.4f of the %d items sent (hot set %d)", 1-float64(len(hot))/float64(max(items, 1)), items, len(hot))
	connectionBudget(rep, cl, dialsBefore, cfg.workers)

	if tr != nil {
		rep.layer["fleet.router_cache_hit_ratio"] = metric{Value: float64(hitItems) / float64(max(items, 1)), Unit: "ratio", Note: fmt.Sprintf("%d of %d items in batches answered with X-Router-Cache: hit", hitItems, items)}
		if nodeItems > 0 {
			rep.layer["server.cache_hit_ratio"] = metric{Value: float64(nodeCached) / float64(nodeItems), Unit: "ratio", Note: fmt.Sprintf("%d of %d items flagged cached in batches that reached a node", nodeCached, nodeItems)}
		} else {
			rep.noWork("every batch was answered by the router cache", "server.cache_hit_ratio")
		}
		clientSpans := make([]span, len(inOrder))
		for i, op := range inOrder {
			clientSpans[i] = op.span
		}
		fleetReadSpans(rep, tr, clientSpans)
		traceOverhead(rep, samples, func(i int) bool { return inOrder[i].span.ID != 0 })
		sum, err := maxent(st.primary)
		if err != nil {
			return err
		}
		hotReads, err := encodeReads(hot)
		if err != nil {
			return err
		}
		if err := offlineLayers(rep, workloadRelation(), sum, hotReads, cfg.dir); err != nil {
			return err
		}
		rep.noWork("no ingest on dashboard", "server.ingest_self_ms", "summary.refresh_ms", "solver.refresh_sweeps", "fleet.sync_ms")
		rep.noWork("estimator spans are recorded on explore only", "summary.count_us", "summary.groupby_us")
		rep.noWork("closed loop: no schedule to fall behind", "loadgen.late_p99_ms")
	}
	return nil
}
