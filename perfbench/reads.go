package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/server"
)

// readReq is one single-query JSON read, encoded before timing starts.
type readReq struct {
	q    experiment.Query
	key  string
	path string
	body []byte
}

func encodeReads(qs []experiment.Query) ([]readReq, error) {
	out := make([]readReq, len(qs))
	for i, q := range qs {
		r := readReq{q: q, key: queryKey(q), path: "/query"}
		var err error
		if q.IsGroupBy() {
			r.path = "/groupby"
			r.body, err = json.Marshal(server.GroupByRequest{Estimator: maxentName, Predicate: q.Pred, GroupBy: q.GroupBy})
		} else {
			r.body, err = json.Marshal(server.QueryRequest{Estimator: maxentName, Predicate: q.Pred})
		}
		if err != nil {
			return nil, fmt.Errorf("encode query %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// readAnswer is what one read returned: the answer, whether the node
// served it from its result cache, and, on routed reads, which node
// answered at which estimator generation and whether the router's cache
// answered instead.
type readAnswer struct {
	OK        bool
	Count     float64           `json:"count"`
	Groups    []server.GroupRow `json:"groups"`
	Cached    bool              `json:"cached"`
	Node      string            `json:"-"`
	Gen       uint64            `json:"-"`
	RouterHit bool              `json:"-"`
	Err       string            `json:"-"`
}

// sendRead posts one read to base. When tr is non-nil the request is
// traced: it carries a fresh client span, which is returned.
func sendRead(c *http.Client, base string, r readReq, tr *tracer, inf *inflight) (readAnswer, span) {
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return readAnswer{Err: err.Error()}, span{}
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if tr != nil {
		sp = span{ID: tr.newID(), Layer: layerClient, Name: "read"}
		req.Header.Set(spanHeader, strconv.FormatUint(sp.ID, 10))
		if inf != nil {
			inf.add(r.key, sp.ID)
			defer inf.remove(r.key, sp.ID)
		}
		sp.Start = tr.now()
	}
	resp, err := c.Do(req)
	if err != nil {
		return readAnswer{Err: err.Error()}, sp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr != nil {
		sp.End = tr.now()
	}
	if err != nil {
		return readAnswer{Err: err.Error()}, sp
	}
	if resp.StatusCode != http.StatusOK {
		return readAnswer{Err: fmt.Sprintf("%s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(body))}, sp
	}
	var a readAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return readAnswer{Err: err.Error()}, sp
	}
	a.OK = true
	a.Node = resp.Header.Get(fleet.FleetNodeHeader)
	a.RouterHit = resp.Header.Get(fleet.RouterCacheHeader) == "hit"
	if g := resp.Header.Get(server.EstimatorGenerationHeader); g != "" {
		a.Gen, _ = strconv.ParseUint(g, 10, 64) // unparsable: 0, no generation vouched for
	}
	return a, sp
}

// sameAnswer reports whether a served read equals an in-process answer
// bit for bit.
func sameAnswer(a readAnswer, q experiment.Query, count float64, groups []core.GroupEstimate) bool {
	if !q.IsGroupBy() {
		return math.Float64bits(a.Count) == math.Float64bits(count)
	}
	if len(a.Groups) != len(groups) {
		return false
	}
	for i, g := range groups {
		got := a.Groups[i]
		if math.Float64bits(got.Estimate) != math.Float64bits(g.Estimate) || len(got.Values) != len(g.Values) {
			return false
		}
		for j, v := range g.Values {
			if got.Values[j] != v {
				return false
			}
		}
	}
	return true
}

// expected memoizes in-process answers per query identity.
type expected struct {
	est    core.Estimator
	counts map[string]float64
	groups map[string][]core.GroupEstimate
}

func newExpected(est core.Estimator) *expected {
	return &expected{est: est, counts: make(map[string]float64), groups: make(map[string][]core.GroupEstimate)}
}

func (e *expected) check(a readAnswer, r readReq) (bool, error) {
	if r.q.IsGroupBy() {
		g, ok := e.groups[r.key]
		if !ok {
			var err error
			if g, err = e.est.EstimateGroupBy(r.q.GroupBy, r.q.Pred); err != nil {
				return false, err
			}
			e.groups[r.key] = g
		}
		return sameAnswer(a, r.q, 0, g), nil
	}
	c, ok := e.counts[r.key]
	if !ok {
		var err error
		if c, err = e.est.EstimateCount(r.q.Pred); err != nil {
			return false, err
		}
		e.counts[r.key] = c
	}
	return sameAnswer(a, r.q, c, nil), nil
}
