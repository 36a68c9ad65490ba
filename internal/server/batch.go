package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/query"
)

// BinaryBatchContentType is the media type of the binary batch frames on
// POST /query/batch (request and response; the frame magic distinguishes
// the two directions). Anything else is treated as JSON.
const BinaryBatchContentType = "application/x-entropydb-batch"

// BatchQueryItem is one query of a JSON POST /query/batch body. An empty
// group_by asks for a count; a non-empty one for a group-by.
type BatchQueryItem struct {
	Predicate *query.Predicate `json:"predicate,omitempty"`
	GroupBy   []int            `json:"group_by,omitempty"`
}

// BatchQueryRequest is the JSON body of POST /query/batch. Version > 0
// answers the whole batch from that retained snapshot of the estimator's
// dataset key (the binary wire carries the same field in its format v2
// frame); a ?version=N URL parameter overrides it on either wire.
type BatchQueryRequest struct {
	Estimator string           `json:"estimator"`
	Version   int              `json:"version,omitempty"`
	Queries   []BatchQueryItem `json:"queries"`
}

// Items converts the JSON queries into batch items.
func (req BatchQueryRequest) Items() []query.BatchItem {
	items := make([]query.BatchItem, len(req.Queries))
	for i, q := range req.Queries {
		items[i] = query.BatchItem{Pred: q.Predicate, GroupBy: q.GroupBy}
	}
	return items
}

// BatchResult is one answer of a JSON batch response. Exactly one of
// count/groups/error is meaningful: error for a per-query failure, groups
// when is_group, count otherwise.
type BatchResult struct {
	Count   float64    `json:"count"`
	Groups  []GroupRow `json:"groups,omitempty"`
	IsGroup bool       `json:"is_group,omitempty"`
	Cached  bool       `json:"cached,omitempty"`
	Error   string     `json:"error,omitempty"`
}

// BatchQueryResponse is the JSON body of a successful POST /query/batch.
// Version echoes the snapshot version that answered (0 = live).
type BatchQueryResponse struct {
	Estimator string        `json:"estimator"`
	Version   int           `json:"version,omitempty"`
	Answers   []BatchResult `json:"answers"`
	LatencyNS int64         `json:"latency_ns"`
}

// handleBatch serves POST /query/batch: N queries answered in one round
// trip. The request wire is chosen by Content-Type and the response wire
// by Accept (defaulting to mirror the request); both JSON and the binary
// frame of internal/query are supported, and both decode into the read
// pipeline, so their answers are bit-identical.
//
// Batch-level problems (malformed body, unknown estimator, empty or
// oversized batch, admission failure) are HTTP errors; per-query problems
// (arity mismatch, estimator refusal) land in that answer's error field
// under a 200, so one bad query cannot void its batchmates.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	failed := false
	defer func() { s.metrics.Record(s.opts.Now().Sub(start), failed) }()
	fail := func(herr *httpError) {
		failed = true
		writeJSON(w, herr.status, errorResponse{Error: herr.msg})
	}
	if r.Method != http.MethodPost {
		fail(&httpError{status: http.StatusMethodNotAllowed, msg: "use POST"})
		return
	}
	binaryReq := strings.HasPrefix(r.Header.Get("Content-Type"), BinaryBatchContentType)
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)}

	var req readBatch
	if binaryReq {
		var err error
		req.estimator, req.version, req.items, err = query.DecodeBatchAt(body)
		if err != nil {
			fail(badRequest("malformed batch frame: %v", err))
			return
		}
	} else {
		var jr BatchQueryRequest
		if err := json.NewDecoder(body).Decode(&jr); err != nil {
			fail(badRequest("malformed request body: %v", err))
			return
		}
		req.estimator, req.version, req.items = jr.Estimator, jr.Version, jr.Items()
	}
	res, herr := s.read(w, r, req)
	// A batch counts once its estimator resolved, even if evaluating its
	// misses then fails (503/504).
	if res.ent.Estimator != nil {
		s.metrics.RecordBatch(len(req.items), body.n, binaryReq)
	}
	if herr != nil {
		fail(herr)
		return
	}

	if wantBinaryAnswers(r.Header.Get("Accept"), binaryReq) {
		rb := respBufPool.Get().(*respBuf)
		frame, err := query.AppendAnswers(rb.b[:0], res.ent.Name, res.answers)
		if err != nil {
			respBufPool.Put(rb)
			fail(&httpError{status: http.StatusInternalServerError, msg: err.Error()})
			return
		}
		rb.b = frame
		w.Header().Set("Content-Type", BinaryBatchContentType)
		w.WriteHeader(http.StatusOK)
		// Write copies the frame into the HTTP buffer, so the buffer can go
		// back to the pool right after.
		_, _ = w.Write(frame)
		respBufPool.Put(rb)
		return
	}
	writeJSON(w, http.StatusOK, BatchQueryResponse{
		Estimator: res.ent.Name,
		Version:   res.ent.Snapshot,
		Answers:   BatchResults(res.answers),
		LatencyNS: s.opts.Now().Sub(start).Nanoseconds(),
	})
}

// BatchResults converts an answer stream into the JSON batch wire's
// results, sharing the group slices.
func BatchResults(answers []query.BatchAnswer) []BatchResult {
	out := make([]BatchResult, len(answers))
	for i, a := range answers {
		out[i] = BatchResult{Count: a.Count, Groups: a.Groups, IsGroup: a.IsGroup, Cached: a.Cached, Error: a.Error}
	}
	return out
}

// respBuf wraps the pooled binary-response buffer (a pointer-shaped pool
// entry, so Put never allocates).
type respBuf struct{ b []byte }

// respBufPool recycles binary batch response buffers across requests:
// after warm-up, assembling a cached-answer frame allocates nothing.
var respBufPool = sync.Pool{New: func() interface{} { return new(respBuf) }}

// wantBinaryAnswers picks the response wire: an explicit Accept wins,
// otherwise the response mirrors the request format.
func wantBinaryAnswers(accept string, binaryReq bool) bool {
	if strings.Contains(accept, BinaryBatchContentType) {
		return true
	}
	if strings.Contains(accept, "application/json") {
		return false
	}
	return binaryReq
}

// countingReader counts consumed body bytes for the bytes-per-query
// histogram (Content-Length may be absent on chunked uploads).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
