package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

// Span layers recorded by the traced run.
const (
	layerClient    = "client"         // the load generator's request
	layerNode      = "server.handler" // server.Handler() on a node
	layerRouter    = "fleet.router"   // Router.Handler()
	layerForward   = "fleet.forward"  // one router→node attempt
	layerCount     = "summary.count"  // Estimator.EstimateCount
	layerGroupBy   = "summary.groupby"
	spanHeader     = "X-Bench-Span"
	noParent       = 0
	spanBufferSize = 1 << 16
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it (0 for a root); Name carries the request path where a layer
// serves several.
type span struct {
	ID, Parent uint64
	Layer      string
	Name       string
	Start, End int64 // ns since the tracer's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run is wired.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, spanBufferSize)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reset drops every span recorded so far (warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// tracedOp picks the half of a traced run's operations that carry spans;
// the other half is the untraced baseline for the tracing overhead. It
// takes half of every residue mod 4, so no query kind of a stream that
// repeats with period 4 (every fourth query a group-by) is left out.
func tracedOp(i int) bool { return (i+i/4)%2 == 0 }

type spanKey struct{}

func spanFromContext(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(spanKey{}).(uint64)
	return id, ok
}

// middleware records a span around every request to next that carries a
// span header, parented to that header; requests without one pass through
// untouched. The span ID travels on in the request context, so a
// RoundTripper the handler calls can parent its own spans to it.
func (t *tracer) middleware(layer string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.Header.Get(spanHeader)
		if raw == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(span{ID: id, Parent: parent, Layer: layer, Name: r.URL.Path, Start: start, End: t.now()})
	})
}

// transport is the RoundTripper handed to the router as
// fleet.Options.Client: it records one forward span per node attempt,
// parented to the router span found in the request context, and stamps
// the span on the outgoing request so the node's middleware links to it.
// The span ends when the node's body has been read to EOF or closed.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := spanFromContext(req.Context())
	if !ok {
		return tr.base.RoundTrip(req)
	}
	id := tr.t.newID()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	s := span{ID: id, Parent: parent, Layer: layerForward, Name: req.URL.Path, Start: tr.t.now()}
	resp, err := tr.base.RoundTrip(out)
	if err != nil {
		s.End = tr.t.now()
		tr.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, s: s}
	return resp, nil
}

// spanBody ends its span at the first EOF or Close.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// inflight maps the identity of each traced query in flight to its
// client span, so the estimator decorator — which the server calls on a
// goroutine of its own, with no request context — can find the request
// that caused its call. Two identical queries in flight at once share an
// entry; the later one wins.
type inflight struct {
	mu sync.Mutex
	m  map[string]uint64
}

func newInflight() *inflight { return &inflight{m: make(map[string]uint64)} }

func (f *inflight) add(key string, id uint64) {
	f.mu.Lock()
	f.m[key] = id
	f.mu.Unlock()
}

func (f *inflight) remove(key string, id uint64) {
	f.mu.Lock()
	if f.m[key] == id {
		delete(f.m, key)
	}
	f.mu.Unlock()
}

func (f *inflight) get(key string) (uint64, bool) {
	f.mu.Lock()
	id, ok := f.m[key]
	f.mu.Unlock()
	return id, ok
}

// tracedEstimator records a span around each estimator call made for a
// traced request. Its spans are parented to the client span; analysis
// attaches them to the node span of the same request.
type tracedEstimator struct {
	core.Estimator
	t   *tracer
	inf *inflight
}

func (e *tracedEstimator) EstimateCount(pred *query.Predicate) (float64, error) {
	parent, ok := e.inf.get(countKey(pred))
	if !ok {
		return e.Estimator.EstimateCount(pred)
	}
	start := e.t.now()
	v, err := e.Estimator.EstimateCount(pred)
	e.t.record(span{ID: e.t.newID(), Parent: parent, Layer: layerCount, Start: start, End: e.t.now()})
	return v, err
}

func (e *tracedEstimator) EstimateGroupBy(attrs []int, pred *query.Predicate) ([]core.GroupEstimate, error) {
	parent, ok := e.inf.get(groupKey(attrs, pred))
	if !ok {
		return e.Estimator.EstimateGroupBy(attrs, pred)
	}
	start := e.t.now()
	v, err := e.Estimator.EstimateGroupBy(attrs, pred)
	e.t.record(span{ID: e.t.newID(), Parent: parent, Layer: layerGroupBy, Start: start, End: e.t.now()})
	return v, err
}

// countKey and groupKey build the query identities of data.go's queryKey
// from the estimator call's arguments.
func countKey(pred *query.Predicate) string { return "c|" + predKey(pred) }

func groupKey(attrs []int, pred *query.Predicate) string {
	return fmt.Sprintf("g%v|", attrs) + predKey(pred)
}

func predKey(pred *query.Predicate) string {
	if pred == nil {
		return "-"
	}
	return pred.CanonicalKey()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (parallel attempts) count once,
// and child time outside the parent's interval is ignored.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// spanIndex groups spans by parent for the per-layer analysis.
type spanIndex struct {
	byID     map[uint64]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byID: make(map[uint64]span, len(spans)), children: make(map[uint64][]span)}
	for _, s := range spans {
		ix.byID[s.ID] = s
		if s.Parent != noParent {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// childrenIn returns the children of id at the given layer.
func (ix spanIndex) childrenIn(id uint64, layer string) []span {
	var out []span
	for _, c := range ix.children[id] {
		if c.Layer == layer {
			out = append(out, c)
		}
	}
	return out
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
