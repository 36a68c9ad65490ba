package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/experiment"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/summary"
)

// sinkWriter is the leanest possible ResponseWriter: it keeps the status
// and byte count and discards the body, so a handler benchmark measures
// the handler rather than httptest.ResponseRecorder's copies.
type sinkWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *sinkWriter) WriteHeader(c int)           { w.code = c }

// BenchmarkQueryHandler measures one single read inside the node handler
// — body decode, read pipeline, response encode — without sockets: a
// hand-built request into Handler() and a sink writer. Next to the
// loopback benchmarks, the difference is what transport costs. The
// sub-benchmarks are a cached count, a cached group-by, and an uncached
// selective count (cache disabled, so every call evaluates the model).
func BenchmarkQueryHandler(b *testing.B) {
	reg := server.NewRegistry()
	rel := experiment.SyntheticRelation(3000, rand.New(rand.NewSource(1)))
	if _, err := server.BuildDataset(reg, "demo", rel, server.DatasetOptions{
		Summary:   summary.Options{},
		SkipExact: true,
	}); err != nil {
		b.Fatalf("BuildDataset: %v", err)
	}
	cached := server.New(reg, server.Options{}).Handler()
	uncached := server.New(reg, server.Options{CacheSize: -1}).Handler()
	selective := query.NewPredicate(4).WhereEq(0, 1).WhereRange(2, 0, 1)

	for _, bc := range []struct {
		name    string
		handler http.Handler
		path    string
		body    interface{}
	}{
		{"cached_count", cached, "/query", server.QueryRequest{Estimator: "demo/maxent", Predicate: selective}},
		{"cached_groupby", cached, "/groupby", server.GroupByRequest{Estimator: "demo/maxent", Predicate: selective, GroupBy: []int{1}}},
		{"uncached_selective_count", uncached, "/query", server.QueryRequest{Estimator: "demo/maxent", Predicate: selective}},
	} {
		payload, _ := json.Marshal(bc.body)
		target := &url.URL{Path: bc.path}
		newReq := func() *http.Request {
			return &http.Request{
				Method:        http.MethodPost,
				URL:           target,
				Proto:         "HTTP/1.1",
				ProtoMajor:    1,
				ProtoMinor:    1,
				Header:        http.Header{"Content-Type": {"application/json"}},
				Body:          io.NopCloser(bytes.NewReader(payload)),
				ContentLength: int64(len(payload)),
				Host:          "node.bench",
				RemoteAddr:    "192.0.2.1:1234",
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			w := &sinkWriter{h: make(http.Header)}
			bc.handler.ServeHTTP(w, newReq()) // warm the cache entry
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.code, w.n = 0, 0
				bc.handler.ServeHTTP(w, newReq())
				if w.code != http.StatusOK || w.n == 0 {
					b.Fatalf("status %d, %d bytes", w.code, w.n)
				}
			}
		})
	}
}
