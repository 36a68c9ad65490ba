package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiment"
	"repro/internal/server"
	"repro/internal/summary"
)

// Ingest: the dashboard's fleet, with writes. Single-query JSON reads and
// POST /ingest/{dataset} writes both go through the router, open loop at
// fixed rates. Every refreshEvery-th ingest crosses the primary's
// RefreshRows, so a warm solve runs in that request, the new model is
// published as a snapshot, the replica pulls it and the router fences its
// cache.
const (
	ingestRows     = 50 // rows per ingest batch
	refreshEvery   = 20 // ingests per refresh
	ingestRate     = 50.0
	ingestReadRate = 250.0
	ingestHotSet   = 128 // distinct reads, so the router cache has hits to lose
	syncPoll       = 500 * time.Microsecond
)

type ingestInputs struct {
	reads  []readReq // warm-up reads first
	writes [][]byte  // JSON IngestRequest bodies, warm-up writes first
	nWarmR int
	nWarmW int
}

func makeIngestInputs(cfg config) (ingestInputs, *digest, error) {
	sch := flightsSchema()
	in := ingestInputs{nWarmR: int(ingestReadRate * warmupSeconds), nWarmW: int(ingestRate * warmupSeconds)}
	hot := hotSet(sch, ingestHotSet, querySeed(cfg.seed))
	rng := rand.New(rand.NewSource(querySeed(cfg.seed) + 2))
	qs := make([]experiment.Query, in.nWarmR+int(ingestReadRate*cfg.seconds))
	for i := range qs {
		qs[i] = hot[rng.Intn(len(hot))]
	}
	var err error
	if in.reads, err = encodeReads(qs); err != nil {
		return in, nil, err
	}
	d := newDigest()
	d.relation(workloadRelation())
	d.queries(qs)
	gen := newFlightsGen(relationStructSeed, ingestSeed(cfg.seed))
	in.writes = make([][]byte, in.nWarmW+int(ingestRate*cfg.seconds))
	for i := range in.writes {
		rows := gen.rows(ingestRows)
		for _, r := range rows {
			d.ints(r...)
		}
		if in.writes[i], err = json.Marshal(server.IngestRequest{Rows: rows}); err != nil {
			return in, nil, err
		}
	}
	return in, d, nil
}

// ack is the client-side record of one acknowledged ingest.
type ack struct {
	at     time.Time
	res    server.IngestResult
	sweeps int // solver sweeps of the refresh this ingest ran, if any
	span   span
}

// replicaModel is one generation the replica started serving.
type replicaModel struct {
	at  time.Time
	gen uint64
	n   float64
}

// watchReplica polls the replica's registry and logs every generation
// change, until stop is closed; the returned channel closes when it has.
func watchReplica(st *stack, stop <-chan struct{}, log *[]replicaModel) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		t := time.NewTicker(syncPoll)
		defer t.Stop()
		for {
			if ent, ok := st.replica.Get(maxentName); ok && ent.Generation != last {
				last = ent.Generation
				if sum, ok := ent.Estimator.(*summary.Summary); ok {
					*log = append(*log, replicaModel{at: time.Now(), gen: ent.Generation, n: sum.N()})
				}
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return done
}

func postIngest(c *http.Client, url string, body []byte, spanID uint64) (server.IngestResult, error) {
	var res server.IngestResult
	req, err := http.NewRequest(http.MethodPost, url+"/ingest/"+datasetName, bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("ingest: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return res, json.Unmarshal(b, &res)
}

func runIngest(cfg config, rep *report) error {
	in, d, err := makeIngestInputs(cfg)
	if err != nil {
		return err
	}
	rep.fact("inputs: digest %s (relation %d rows, %d reads over %d distinct, %d ingests of %d rows; refresh every %d rows)",
		d.hex(), baseRows, len(in.reads), ingestHotSet, len(in.writes), ingestRows, ingestRows*refreshEvery)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setupS, coldMS, heapMB, err := setups(setupRounds,
		stackConfig{fleet: true, refreshRows: ingestRows * refreshEvery, tr: tr, dir: cfg.dir}, setupClient)
	if err != nil {
		return err
	}
	defer st.close()
	setupMetrics(rep, setupS, heapMB)
	rep.e2e["cold_start_ms"] = metric{Value: median(coldMS), Unit: "ms", Note: fmt.Sprintf("replica: empty store -> first answer from pulled snapshots, median of %d", len(coldMS))}

	readers := max(1, cfg.workers-1)
	cl := newClient(readers + 1)
	defer cl.close()
	answers := make([]readAnswer, len(in.reads))
	readDone := make([]time.Time, len(in.reads))
	readSpans := make([]span, len(in.reads))
	acks := make([]ack, len(in.writes))
	acked := make([]bool, len(in.writes))
	var models []replicaModel

	readLane := func(lo, hi int) lane {
		return lane{due: schedule(hi-lo, ingestReadRate), workers: readers, do: func(i int) bool {
			i += lo
			traced := tr
			if !tracedOp(i) {
				traced = nil
			}
			answers[i], readSpans[i] = sendRead(cl.Client, st.readURL, in.reads[i], traced, nil)
			readDone[i] = time.Now()
			if !answers[i].OK {
				rep.failure("%s: %s", in.reads[i].path, answers[i].Err)
			}
			return answers[i].OK
		}}
	}
	writeLane := func(lo, hi int) lane {
		return lane{due: schedule(hi-lo, ingestRate), workers: 1, do: func(i int) bool {
			i += lo
			var sp span
			if tr != nil {
				sp = span{ID: tr.newID(), Layer: layerClient, Name: "ingest", Start: tr.now()}
			}
			res, err := postIngest(cl.Client, st.routerURL, in.writes[i], sp.ID)
			if tr != nil {
				sp.End = tr.now()
			}
			if err != nil {
				rep.failure("ingest %d: %v", i, err)
				return false
			}
			a := ack{at: time.Now(), res: res, span: sp}
			if res.Refreshed {
				if sum, err := maxent(st.primary); err == nil {
					a.sweeps = sum.SolverReport().Sweeps
				}
			}
			acks[i], acked[i] = a, true
			return true
		}}
	}

	stop := make(chan struct{})
	watched := watchReplica(st, stop, &models)
	runOpenLoop([]lane{readLane(0, in.nWarmR), writeLane(0, in.nWarmW)})
	dialsBefore := cl.dials.Load()
	if tr != nil {
		tr.reset()
	}
	cpu := startCPU()
	out := runOpenLoop([]lane{readLane(in.nWarmR, len(in.reads)), writeLane(in.nWarmW, len(in.writes))})
	cpu.stop()
	close(stop)
	<-watched
	readSamples, writeSamples := out[0], out[1]

	// Answer check: the primary holds exactly the base rows plus every
	// acknowledged row, and each ack saw the rows acknowledged before it.
	total := baseRows
	for i, ok := range acked {
		if !ok {
			continue
		}
		total += acks[i].res.Accepted
		if acks[i].res.Accepted != ingestRows || acks[i].res.TotalRows != total {
			rep.mismatch("ingest %d: accepted %d, total_rows %d, want %d and %d", i, acks[i].res.Accepted, acks[i].res.TotalRows, ingestRows, total)
		}
	}
	if got := st.live.Status().TotalRows; got != total {
		rep.mismatch("primary holds %d rows, base %d + acknowledged %d = %d", got, baseRows, total-baseRows, total)
	}
	rep.fact("rows: base %d + acknowledged %d = %d held by the primary", baseRows, total-baseRows, st.live.Status().TotalRows)

	for _, s := range append(append([]sample(nil), readSamples...), writeSamples...) {
		rep.attempted++
		if !s.OK {
			rep.failed++
		}
	}
	cpu.report(rep, countOK(readSamples)+countOK(writeSamples), "reads and ingests")
	readMetrics(rep, readSamples)
	wms := make([]float64, len(writeSamples))
	for i, s := range writeSamples {
		wms[i] = math.Inf(1)
		if s.OK {
			wms[i] = float64(s.Latency()) / 1e6
		}
	}
	rep.latencyMetrics(rep.e2e, "ingest_p50_ms", "ingest_p99_ms", wms, "ingests")
	openLoopValidity(rep, append(append([]sample(nil), readSamples...), writeSamples...), cl, dialsBefore, readers+1)

	// Freshness: for each refreshing ack in the window, the replica model
	// that covers its rows, and the first routed read the replica answered
	// at that generation or later.
	var lags, syncs, refreshMS, sweeps []float64
	unresolved := 0
	for i := in.nWarmW; i < len(acks); i++ {
		a := acks[i]
		if !acked[i] || !a.res.Refreshed {
			continue
		}
		refreshMS = append(refreshMS, float64(a.res.RefreshNS)/1e6)
		sweeps = append(sweeps, float64(a.sweeps))
		var model *replicaModel
		for m := range models {
			if models[m].n >= float64(a.res.TotalRows) {
				model = &models[m]
				break
			}
		}
		if model == nil {
			unresolved++
			continue
		}
		syncs = append(syncs, math.Max(0, float64(model.at.Sub(a.at))/1e6))
		fresh := time.Time{}
		for r := in.nWarmR; r < len(answers); r++ {
			ans := answers[r]
			if ans.OK && !ans.RouterHit && ans.Node == "node1" && ans.Gen >= model.gen &&
				(fresh.IsZero() || readDone[r].Before(fresh)) {
				fresh = readDone[r]
			}
		}
		if fresh.IsZero() {
			unresolved++
			continue
		}
		lags = append(lags, math.Max(0, float64(fresh.Sub(a.at))/1e6))
	}
	rep.e2e["fresh_lag_ms"] = metric{Value: median(lags), Unit: "ms", Note: fmt.Sprintf("median over %d refreshing ingests (%d unresolved): ack -> replica answers a routed read at the new generation", len(lags), unresolved)}
	if len(lags) == 0 {
		rep.setInvalid("fresh_lag_ms: no refresh became visible on the replica within the run")
	}
	rep.fact("refreshes in the window: %d", len(refreshMS))

	if tr != nil {
		rep.layer["summary.refresh_ms"] = metric{Value: median(refreshMS), Unit: "ms", Note: fmt.Sprintf("refresh_ns of %d refreshing ingests, median", len(refreshMS))}
		rep.layer["solver.refresh_sweeps"] = metric{Value: median(sweeps), Unit: "count", Note: fmt.Sprintf("warm-solve sweeps of the served model after each of %d refreshes, median", len(sweeps))}
		rep.layer["fleet.sync_ms"] = metric{Value: median(syncs), Unit: "ms", Note: fmt.Sprintf("refresh ack -> replica serves the new model, median of %d", len(syncs))}
		routerHits, nodeReads, nodeCached := 0, 0, 0
		for _, a := range answers[in.nWarmR:] {
			switch {
			case !a.OK:
			case a.RouterHit:
				routerHits++
			default:
				nodeReads++
				if a.Cached {
					nodeCached++
				}
			}
		}
		n := len(answers) - in.nWarmR
		rep.layer["fleet.router_cache_hit_ratio"] = metric{Value: float64(routerHits) / float64(n), Unit: "ratio", Note: fmt.Sprintf("%d of %d reads answered with X-Router-Cache: hit", routerHits, n)}
		rep.layer["server.cache_hit_ratio"] = metric{Value: float64(nodeCached) / float64(max(nodeReads, 1)), Unit: "ratio", Note: fmt.Sprintf("%d of %d node-answered reads flagged cached", nodeCached, nodeReads)}
		fleetReadSpans(rep, tr, readSpans[in.nWarmR:])
		ingestSpans(rep, tr, acks[in.nWarmW:])
		traceOverhead(rep, readSamples, func(i int) bool { return tracedOp(in.nWarmR + i) })
		sum, err := maxent(st.primary)
		if err != nil {
			return err
		}
		if err := offlineLayers(rep, workloadRelation(), sum, in.reads[in.nWarmR:], cfg.dir); err != nil {
			return err
		}
		rep.noWork("estimator spans are recorded on explore only", "summary.count_us", "summary.groupby_us")
	}
	return nil
}

// fleetReadSpans derives the routed-read split: transport (client span
// minus router span), router self time (router span minus its forwards),
// the forwards, and node time under them.
func fleetReadSpans(rep *report, tr *tracer, clientSpans []span) {
	ix := indexSpans(tr.snapshot())
	var transport, routerSelf, forwards, nodeSelf []float64
	for _, c := range clientSpans {
		if c.ID == 0 {
			continue
		}
		routers := ix.childrenIn(c.ID, layerRouter)
		if len(routers) != 1 {
			continue
		}
		r := routers[0]
		transport = append(transport, usOf(c.dur()-r.dur()))
		fw := ix.childrenIn(r.ID, layerForward)
		routerSelf = append(routerSelf, usOf(selfTime(r, fw)))
		for _, f := range fw {
			forwards = append(forwards, usOf(f.dur()))
			for _, n := range ix.childrenIn(f.ID, layerNode) {
				nodeSelf = append(nodeSelf, usOf(selfTime(n, nil)))
			}
		}
	}
	layerMedian(rep, "transport.read_us", "us", transport, "client span - router span")
	layerMedian(rep, "fleet.router_self_us", "us", routerSelf, "router span - forward spans")
	layerMedian(rep, "fleet.forward_us", "us", forwards, "router->node attempt, to the end of the node's body")
	layerMedian(rep, "server.handler_self_us", "us", nodeSelf, "node span of routed reads that reached a node")
}

// ingestSpans derives the node's own ingest time: its /ingest span minus
// the refresh the response reports.
func ingestSpans(rep *report, tr *tracer, acks []ack) {
	ix := indexSpans(tr.snapshot())
	var self []float64
	for _, a := range acks {
		if a.span.ID == 0 {
			continue
		}
		for _, r := range ix.childrenIn(a.span.ID, layerRouter) {
			for _, f := range ix.childrenIn(r.ID, layerForward) {
				for _, n := range ix.childrenIn(f.ID, layerNode) {
					if n.Name == "/ingest/"+datasetName {
						self = append(self, msOf(n.dur()-a.res.RefreshNS))
					}
				}
			}
		}
	}
	layerMedian(rep, "server.ingest_self_ms", "ms", self, "node /ingest span - refresh_ns")
}
