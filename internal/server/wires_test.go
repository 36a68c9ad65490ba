package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/solver"
	"repro/internal/store"
	"repro/internal/summary"
)

// refusingEstimator refuses every query: the estimator-refusal class.
type refusingEstimator struct{}

func (refusingEstimator) Name() string { return "refusing" }
func (refusingEstimator) EstimateCount(*query.Predicate) (float64, error) {
	return 0, errors.New("estimator refuses")
}
func (refusingEstimator) EstimateGroupBy([]int, *query.Predicate) ([]core.GroupEstimate, error) {
	return nil, errors.New("estimator refuses")
}
func (refusingEstimator) ApproxBytes() int64 { return 0 }

// readWire sends one read (estimator, version, item) on one wire and
// returns the HTTP status plus the item's answer; a failed response's
// error message lands in the answer's Error.
type readWire struct {
	name    string
	groupBy bool // the single wires carry one kind only
	single  bool
	send    func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer)
}

// readWires are the five node read wires.
var readWires = []readWire{
	{name: "GET /query", single: true, send: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer) {
		q := url.Values{"estimator": {estimator}, "version": {fmt.Sprint(version)}}
		if it.Pred != nil {
			p, _ := json.Marshal(it.Pred)
			q.Set("predicate", string(p))
		}
		resp, err := http.Get(base + "/query?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return decodeSingle(t, resp, false)
	}},
	{name: "POST /query", single: true, send: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer) {
		return decodeSingle(t, postBody(t, base+"/query", "application/json",
			server.QueryRequest{Estimator: estimator, Predicate: it.Pred, Version: version}), false)
	}},
	{name: "POST /groupby", single: true, groupBy: true, send: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer) {
		return decodeSingle(t, postBody(t, base+"/groupby", "application/json",
			server.GroupByRequest{Estimator: estimator, Predicate: it.Pred, GroupBy: it.GroupBy, Version: version}), true)
	}},
	{name: "JSON /query/batch", send: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer) {
		resp := postBody(t, base+"/query/batch", "application/json", server.BatchQueryRequest{
			Estimator: estimator, Version: version,
			Queries: []server.BatchQueryItem{{Predicate: it.Pred, GroupBy: it.GroupBy}},
		})
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, query.BatchAnswer{Error: errorOf(t, body)}
		}
		var br server.BatchQueryResponse
		if err := json.Unmarshal(body, &br); err != nil || len(br.Answers) != 1 {
			t.Fatalf("JSON batch response %s: %v", body, err)
		}
		a := br.Answers[0]
		return resp.StatusCode, query.BatchAnswer{Count: a.Count, Groups: a.Groups, IsGroup: a.IsGroup, Cached: a.Cached, Error: a.Error}
	}},
	{name: "binary /query/batch", send: func(t *testing.T, base, estimator string, version int, it query.BatchItem) (int, query.BatchAnswer) {
		frame, err := query.AppendBatchAt(nil, estimator, version, []query.BatchItem{it})
		if err != nil {
			t.Fatal(err)
		}
		resp := postBody(t, base+"/query/batch", server.BinaryBatchContentType, frame)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, query.BatchAnswer{Error: errorOf(t, body)}
		}
		_, answers, err := query.DecodeAnswers(resp.Body)
		if err != nil || len(answers) != 1 {
			t.Fatalf("binary batch response: %d answers, %v", len(answers), err)
		}
		return resp.StatusCode, answers[0]
	}},
}

// postBody POSTs a JSON-marshalled value, or raw bytes as given.
func postBody(t *testing.T, target, contentType string, v interface{}) *http.Response {
	t.Helper()
	b, ok := v.([]byte)
	if !ok {
		var err error
		if b, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(target, contentType, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeSingle normalizes a /query or /groupby response into an answer.
func decodeSingle(t *testing.T, resp *http.Response, isGroup bool) (int, query.BatchAnswer) {
	t.Helper()
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, query.BatchAnswer{IsGroup: isGroup, Error: errorOf(t, body)}
	}
	if isGroup {
		var gr server.GroupByResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, query.BatchAnswer{IsGroup: true, Groups: gr.Groups, Cached: gr.Cached}
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, query.BatchAnswer{Count: qr.Count, Cached: qr.Cached}
}

// errorOf extracts the message of a JSON error body.
func errorOf(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error body %q is not a JSON error", body)
	}
	return e.Error
}

// newWiresServer serves a store-backed demo dataset (snapshot version 1
// retained) plus an estimator that refuses every query.
func newWiresServer(t *testing.T) (string, *server.Registry, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(1500, rand.New(rand.NewSource(1)))
	if _, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{
		Summary:   summary.Options{Solver: solver.Options{MaxSweeps: 200}},
		SkipExact: true,
		Store:     st,
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("demo/refusing", refusingEstimator{}, experiment.SyntheticSchema()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{Store: st}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL, reg, st
}

// TestReadWiresErrorSurface sends every error class through each read wire
// that carries its kind of query. The single wires answer with the
// failure's own status; the batch wires report an item failure as that
// item's error under a 200, and a request failure with the same status.
func TestReadWiresErrorSurface(t *testing.T) {
	base, _, _ := newWiresServer(t)
	cases := []struct {
		name      string
		estimator string
		version   int
		item      query.BatchItem
		status    int
		whole     bool // fails the whole request, batches included
		msg       string
	}{
		{"arity mismatch count", "demo/maxent", 0, query.BatchItem{Pred: query.NewPredicate(7)}, 400, false, "num_attrs=7"},
		{"arity mismatch group-by", "demo/maxent", 0, query.BatchItem{Pred: query.NewPredicate(7), GroupBy: []int{0}}, 400, false, "num_attrs=7"},
		{"group_by out of range", "demo/maxent", 0, query.BatchItem{GroupBy: []int{9}}, 400, false, "out of range"},
		{"group_by too wide", "demo/maxent", 0, query.BatchItem{GroupBy: []int{0, 1, 2, 3, 0}}, 400, false, "group_by needs 1..4"},
		{"duplicate group_by", "demo/maxent", 0, query.BatchItem{GroupBy: []int{1, 1}}, 400, false, "duplicate"},
		{"estimator refusal count", "demo/refusing", 0, query.BatchItem{}, 422, false, "refuses"},
		{"estimator refusal group-by", "demo/refusing", 0, query.BatchItem{GroupBy: []int{0}}, 422, false, "refuses"},
		{"unknown estimator count", "nope", 0, query.BatchItem{}, 404, true, "unknown estimator"},
		{"unknown estimator group-by", "nope", 0, query.BatchItem{GroupBy: []int{0}}, 404, true, "unknown estimator"},
		{"unknown version count", "demo/maxent", 99, query.BatchItem{}, 404, true, "no snapshot version 99"},
		{"unknown version group-by", "demo/maxent", 99, query.BatchItem{GroupBy: []int{0}}, 404, true, "no snapshot version 99"},
	}
	for _, tc := range cases {
		isGroup := len(tc.item.GroupBy) > 0
		for _, wire := range readWires {
			if wire.single && wire.groupBy != isGroup {
				continue
			}
			status, a := wire.send(t, base, tc.estimator, tc.version, tc.item)
			want := tc.status
			if !wire.single && !tc.whole {
				want = http.StatusOK
				if a.IsGroup != isGroup {
					t.Errorf("%s on %s: is_group %v, want %v", tc.name, wire.name, a.IsGroup, isGroup)
				}
			}
			if status != want || !strings.Contains(a.Error, tc.msg) {
				t.Errorf("%s on %s: status %d error %q; want %d mentioning %q", tc.name, wire.name, status, a.Error, want, tc.msg)
			}
		}
	}

	// On /groupby an empty group_by is a 400; the same item in a batch is
	// a count.
	status, a := readWires[2].send(t, base, "demo/maxent", 0, query.BatchItem{})
	if status != http.StatusBadRequest || !strings.Contains(a.Error, "group_by needs 1..4 attributes") {
		t.Errorf("/groupby without group_by: status %d error %q, want 400", status, a.Error)
	}
	for _, wire := range readWires[3:] {
		if status, a := wire.send(t, base, "demo/maxent", 0, query.BatchItem{}); status != http.StatusOK || a.Error != "" || a.IsGroup || a.Count <= 0 {
			t.Errorf("%s: empty group_by item answered %d %+v, want a count", wire.name, status, a)
		}
	}
}

// TestReadWiresAgree asks the same valid reads — counts and group-bys, live
// and at a retained snapshot version — on every wire that carries them: each
// answer must be bit-identical to the in-process estimator call, whether the
// wire computed it or found it cached.
func TestReadWiresAgree(t *testing.T) {
	base, reg, st := newWiresServer(t)
	live, _ := reg.Get("demo/maxent")
	v1, _, err := st.Load("demo/maxent", 1)
	if err != nil {
		t.Fatal(err)
	}
	items := []query.BatchItem{
		{},
		{Pred: query.NewPredicate(4).WhereEq(0, 1)},
		{Pred: query.NewPredicate(4).WhereRange(1, 0, 2), GroupBy: []int{0}},
		{GroupBy: []int{2, 1}},
	}
	for version, est := range map[int]core.Estimator{0: live.Estimator, 1: v1.(core.Estimator)} {
		for i, it := range items {
			isGroup := len(it.GroupBy) > 0
			want := query.BatchAnswer{IsGroup: isGroup}
			if isGroup {
				want.Groups, err = est.EstimateGroupBy(it.GroupBy, it.Pred)
			} else {
				want.Count, err = est.EstimateCount(it.Pred)
			}
			if err != nil {
				t.Fatal(err)
			}
			first := true
			for _, wire := range readWires {
				if wire.single && wire.groupBy != isGroup {
					continue
				}
				status, got := wire.send(t, base, "demo/maxent", version, it)
				if status != http.StatusOK || !sameAnswer(got, want) {
					t.Errorf("version %d item %d on %s: status %d %+v, want %+v", version, i, wire.name, status, got, want)
				}
				if got.Cached == first {
					t.Errorf("version %d item %d on %s: cached=%v, want %v", version, i, wire.name, got.Cached, !first)
				}
				first = false
			}
		}
	}
}
