package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/fleet/fleettest"
	"repro/internal/query"
	"repro/internal/server"
)

// postBatch sends one batch on the JSON or binary wire and returns the
// answers normalized to the binary shape plus the JSON version echo.
func postBatch(t *testing.T, target, estimator string, items []query.BatchItem, binary bool) ([]query.BatchAnswer, int) {
	t.Helper()
	var body []byte
	contentType := "application/json"
	if binary {
		var err error
		if body, err = query.AppendBatchAt(nil, estimator, 0, items); err != nil {
			t.Fatal(err)
		}
		contentType = server.BinaryBatchContentType
	} else {
		req := server.BatchQueryRequest{Estimator: estimator}
		for _, it := range items {
			req.Queries = append(req.Queries, server.BatchQueryItem{Predicate: it.Pred, GroupBy: it.GroupBy})
		}
		body, _ = json.Marshal(req)
	}
	resp, err := http.Post(target, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch at %s: status %d: %s", target, resp.StatusCode, b)
	}
	if binary {
		_, answers, err := query.DecodeAnswers(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return answers, 0
	}
	var br server.BatchQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	answers := make([]query.BatchAnswer, len(br.Answers))
	for i, a := range br.Answers {
		answers[i] = query.BatchAnswer{Count: a.Count, Groups: a.Groups, IsGroup: a.IsGroup, Error: a.Error}
	}
	return answers, br.Version
}

// TestRouterUncachedBatchEquivalence covers the router's one batch path
// with its cache disabled: a batch small enough to go to one node, a
// batch big enough to fan out across nodes, and a ?version=N batch the
// router resolves itself must each answer like the node, on both wires.
func TestRouterUncachedBatchEquivalence(t *testing.T) {
	f := fleettest.New(t, fleettest.Options{
		Nodes:       3,
		RefreshRows: 300,
		Router:      fleet.Options{CacheSize: -1, FanoutBatch: 8, Timeout: 5 * time.Second},
	})
	primary, routed := f.Primary().URL(), f.RouterURL()
	// An ingest past the refresh threshold makes version 1 differ from the
	// live estimator, so a batch answered at the wrong version shows.
	var ing server.IngestResult
	if s := postJSON(t, routed+"/ingest/demo", server.IngestRequest{Rows: fleettest.Rows(400, 3)}, &ing); s != http.StatusOK || !ing.Refreshed {
		t.Fatalf("routed ingest: status %d, %+v", s, ing)
	}
	if err := f.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	workload := experiment.GenerateWorkload(experiment.SyntheticSchema(), 16, rand.New(rand.NewSource(5)))
	items := make([]query.BatchItem, 0, len(workload)+1)
	for _, q := range workload {
		items = append(items, query.BatchItem{Pred: q.Pred, GroupBy: q.GroupBy})
	}
	// A per-item failure rides along in both shapes.
	items = append(items, query.BatchItem{Pred: query.NewPredicate(7)})

	cases := []struct {
		name    string
		query   string
		items   []query.BatchItem
		fansOut bool
	}{
		{"small", "", items[len(items)-4:], false},
		{"fanned out", "", items, true},
		{"versioned small", "?version=1", items[:3], false},
		{"versioned fanned out", "?version=1", items, true},
	}
	for _, tc := range cases {
		for _, binary := range []bool{false, true} {
			label := fmt.Sprintf("%s batch (binary=%v)", tc.name, binary)
			before := routerMetrics(t, routed).FannedOut
			want, wantVersion := postBatch(t, primary+"/query/batch"+tc.query, "demo/maxent", tc.items, binary)
			got, gotVersion := postBatch(t, routed+"/query/batch"+tc.query, "demo/maxent", tc.items, binary)
			if err := sameAnswers(want, got); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if gotVersion != wantVersion {
				t.Fatalf("%s: routed version echo %d, node %d", label, gotVersion, wantVersion)
			}
			if fanned := routerMetrics(t, routed).FannedOut > before; fanned != tc.fansOut {
				t.Fatalf("%s: fanned out %v, want %v", label, fanned, tc.fansOut)
			}
		}
	}

	// The versioned batches really answered at version 1.
	live, _ := postBatch(t, primary+"/query/batch", "demo/maxent", items, true)
	v1, _ := postBatch(t, routed+"/query/batch?version=1", "demo/maxent", items, true)
	if sameAnswers(live, v1) == nil {
		t.Fatal("routed ?version=1 batch answered like the live estimator")
	}
}
