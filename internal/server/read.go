package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/store"
)

// The node read pipeline. Every read wire — GET and POST /query, POST
// /groupby, and the JSON and binary POST /query/batch — decodes its
// request into a readBatch and hands it to Server.read, which does
// everything up to the encoder: the ?version=N override, the entry lookup,
// the generation header, one cache key and lookup per item, one admission
// for all misses, and the cache stores. Each wire keeps only its decoder
// and its encoder, so a query answers identically on all five.

// readBatch is one decoded read request.
type readBatch struct {
	estimator string
	version   int
	items     []query.BatchItem
	// groupBy makes every item a group-by, even one with an empty GroupBy:
	// on /groupby an empty group_by is a 400, while an empty GroupBy in a
	// batch item asks for a count.
	groupBy bool
}

// readResult is what read hands to a wire's encoder.
type readResult struct {
	ent     Entry
	answers []query.BatchAnswer
	// status is the HTTP class of each failed item (400 for a key or
	// validation error, 422 for an estimator refusal, 0 for a success),
	// nil when no item failed. The batch wires report a failure as the
	// item's error under a 200; the single wires answer with its status.
	status []int
}

// fail records item i's failure.
func (res *readResult) fail(i, status int, msg string) {
	if res.status == nil {
		res.status = make([]int, len(res.answers))
	}
	res.status[i] = status
	res.answers[i].Error = msg
}

// read answers a decoded request. A non-nil error fails the whole request:
// a bad ?version=N, an empty or oversized batch, an unresolvable estimator
// (res.ent is zero then), no worker slot (503), or a timeout (504); per-item
// problems land in the result instead. Cache hits never touch the worker
// pool, and all misses are evaluated under one admission slot — a batch
// pays one queue wait, not N.
func (s *Server) read(w http.ResponseWriter, r *http.Request, req readBatch) (readResult, *httpError) {
	if v, herr := urlVersion(r); herr != nil {
		return readResult{}, herr
	} else if v >= 0 {
		req.version = v
	}
	if len(req.items) == 0 {
		return readResult{}, badRequest("batch is empty")
	}
	if len(req.items) > s.opts.MaxBatch {
		return readResult{}, badRequest("batch of %d queries exceeds the limit of %d", len(req.items), s.opts.MaxBatch)
	}
	// Resolve the estimator once: every answer of a request comes from the
	// same registry snapshot (name + generation, or name + snapshot version
	// for time travel), even if an ingest swaps the estimator mid-flight.
	ent, herr := s.lookupEntry(req.estimator, req.version)
	if herr != nil {
		return readResult{}, herr
	}
	setGenerationHeader(w, ent)
	res := readResult{ent: ent, answers: make([]query.BatchAnswer, len(req.items))}
	type miss struct {
		idx int
		key string
		it  query.BatchItem
	}
	// Sized lazily on the first miss: an all-hit request (the steady state
	// a warm cache serves) never allocates the slice at all.
	var misses []miss
	for i, it := range req.items {
		a := &res.answers[i]
		a.IsGroup = req.groupBy || len(it.GroupBy) > 0
		key, herr := queryKey(ent, a.IsGroup, it.Pred, it.GroupBy)
		if herr != nil {
			res.fail(i, herr.status, herr.msg)
			continue
		}
		if v, hit := s.cache.Get(key); hit {
			a.Cached = true
			if a.IsGroup {
				a.Groups = v.([]GroupRow)
			} else {
				a.Count = v.(float64)
			}
			continue
		}
		if misses == nil {
			misses = make([]miss, 0, len(req.items)-i)
		}
		misses = append(misses, miss{idx: i, key: key, it: it})
	}
	if len(misses) == 0 {
		return res, nil
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	answers := res.answers
	herr = s.execute(ctx, func() {
		for _, m := range misses {
			a := &answers[m.idx]
			var err error
			if a.IsGroup {
				a.Groups, err = ent.Estimator.EstimateGroupBy(m.it.GroupBy, m.it.Pred)
			} else {
				a.Count, err = ent.Estimator.EstimateCount(m.it.Pred)
			}
			switch {
			case err != nil:
				a.Error = err.Error()
			case a.IsGroup:
				s.cache.Put(m.key, a.Groups)
			default:
				s.cache.Put(m.key, a.Count)
			}
		}
	})
	if herr != nil {
		// 503 (no slot) or 504 (timed out mid-evaluation): the whole
		// request fails — partial answers are not reported, and the
		// abandoned evaluation may still be writing them.
		return readResult{ent: ent}, herr
	}
	for _, m := range misses {
		if msg := res.answers[m.idx].Error; msg != "" {
			res.fail(m.idx, http.StatusUnprocessableEntity, msg)
		}
	}
	return res, nil
}

// lookupEntry resolves an estimator name at a version: version <= 0 is
// the live registry entry, version > 0 a retained snapshot served through
// the historical cache (restored on first hit).
func (s *Server) lookupEntry(estimator string, version int) (Entry, *httpError) {
	if estimator == "" {
		return Entry{}, badRequest(`missing "estimator"`)
	}
	if version <= 0 {
		ent, ok := s.reg.Get(estimator)
		if !ok {
			return Entry{}, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown estimator %q", estimator)}
		}
		return ent, nil
	}
	if s.history == nil {
		return Entry{}, &httpError{status: http.StatusNotImplemented,
			msg: "versioned queries need a snapshot store (start summaryd with -store)"}
	}
	ent, err := s.history.Get(estimator, version)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			return Entry{}, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("estimator %q has no snapshot version %d", estimator, version)}
		case errors.Is(err, store.ErrCorrupt):
			return Entry{}, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
		default:
			return Entry{}, badRequest("%v", err)
		}
	}
	return ent, nil
}

// queryKey validates the query shape against the entry's schema and builds
// the canonical cache key, so a query hits the same cache entry whichever
// wire carried it.
func queryKey(ent Entry, isGroup bool, pred *query.Predicate, groupBy []int) (string, *httpError) {
	numAttrs := ent.Schema.NumAttrs()
	if pred != nil && pred.NumAttrs() != numAttrs {
		return "", badRequest("predicate has num_attrs=%d, estimator %q answers over %d attributes",
			pred.NumAttrs(), ent.Name, numAttrs)
	}
	// The entry generation is part of the key, so answers cached before a
	// hot swap can never be served afterwards — even if an in-flight query
	// of the old generation stores its result after the swap's explicit
	// invalidation ran. Historical entries (Snapshot > 0) are immutable and
	// key by snapshot version instead, under a distinct "s" marker so a
	// snapshot version can never collide with a live generation. Built with
	// one Builder rather than string concatenation: a batch calls this once
	// per item.
	var b strings.Builder
	b.Grow(len(ent.Name) + 16)
	b.WriteString(ent.Name)
	if ent.Snapshot > 0 {
		b.WriteString("\x00s")
		b.WriteString(strconv.Itoa(ent.Snapshot))
	} else {
		b.WriteString("\x00v")
		b.WriteString(strconv.FormatUint(ent.Generation, 10))
	}
	b.WriteByte(0)
	if !isGroup {
		b.WriteByte('c')
	} else {
		b.WriteByte('g')
		if len(groupBy) == 0 || len(groupBy) > 4 {
			return "", badRequest("group_by needs 1..4 attributes, got %d", len(groupBy))
		}
		for i, a := range groupBy {
			if a < 0 || a >= numAttrs {
				return "", badRequest("group_by attribute %d out of range [0,%d)", a, numAttrs)
			}
			for _, prev := range groupBy[:i] {
				if prev == a {
					return "", badRequest("duplicate group_by attribute %d", a)
				}
			}
			b.WriteByte(',')
			b.WriteString(strconv.Itoa(a))
		}
	}
	b.WriteByte(0)
	if pred != nil {
		b.WriteString(pred.CanonicalKey())
	}
	return b.String(), nil
}

// execute runs fn on the bounded worker pool under ctx: it queues for a
// slot, then runs fn in a goroutine so a timeout can abandon (not cancel)
// a straggling evaluation without unbounding the pool — the slot is only
// released once fn actually returns.
func (s *Server) execute(ctx context.Context, fn func()) *httpError {
	if herr := s.admit(ctx); herr != nil {
		return herr
	}
	done := make(chan struct{})
	go func() {
		defer func() { <-s.sem }()
		fn()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return &httpError{status: http.StatusGatewayTimeout, msg: "query timed out"}
	}
}

// --- the single-read wires ------------------------------------------------

// handleQuery serves POST /query (JSON body) and GET /query (URL
// parameters: estimator, version, and an optional URL-encoded JSON
// predicate — the curl-able time-travel form). On both methods a
// ?version=N URL parameter overrides the body's version field.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	var req QueryRequest
	var herr *httpError
	if r.Method == http.MethodGet {
		herr = queryRequestFromURL(r, &req)
	} else {
		herr = s.decodePost(w, r, &req)
	}
	s.serveSingle(w, r, start, herr, readBatch{estimator: req.Estimator, version: req.Version,
		items: []query.BatchItem{{Pred: req.Predicate}}})
}

// handleGroupBy serves POST /groupby; ?version=N works as on /query.
func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	var req GroupByRequest
	herr := s.decodePost(w, r, &req)
	s.serveSingle(w, r, start, herr, readBatch{estimator: req.Estimator, version: req.Version,
		items: []query.BatchItem{{Pred: req.Predicate, GroupBy: req.GroupBy}}, groupBy: true})
}

// serveSingle runs a decoded one-item read (unless decoding already failed
// with herr) and writes the single-wire response: the answer, or the
// failure with its own status.
func (s *Server) serveSingle(w http.ResponseWriter, r *http.Request, start time.Time, herr *httpError, req readBatch) {
	if herr == nil {
		herr = s.writeSingle(w, r, req)
	}
	if herr != nil {
		writeJSON(w, herr.status, errorResponse{Error: herr.msg})
	}
	s.metrics.Record(s.opts.Now().Sub(start), herr != nil)
}

// writeSingle is the single wires' encoder; latency_ns covers the read
// pipeline, not the decode.
func (s *Server) writeSingle(w http.ResponseWriter, r *http.Request, req readBatch) *httpError {
	t0 := s.opts.Now()
	res, herr := s.read(w, r, req)
	if herr != nil {
		return herr
	}
	a := res.answers[0]
	if res.status != nil {
		return &httpError{status: res.status[0], msg: a.Error}
	}
	latency := s.opts.Now().Sub(t0).Nanoseconds()
	if !req.groupBy {
		writeJSON(w, http.StatusOK, QueryResponse{Estimator: res.ent.Name, Version: res.ent.Snapshot,
			Count: a.Count, Cached: a.Cached, LatencyNS: latency})
		return nil
	}
	if a.Groups == nil {
		a.Groups = []GroupRow{} // an empty answer is "groups": [], never null
	}
	writeJSON(w, http.StatusOK, GroupByResponse{Estimator: res.ent.Name, Version: res.ent.Snapshot,
		Groups: a.Groups, Cached: a.Cached, LatencyNS: latency})
	return nil
}

// decodePost decodes a POST's JSON body into req.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, req interface{}) *httpError {
	if r.Method != http.MethodPost {
		return &httpError{status: http.StatusMethodNotAllowed, msg: "use POST"}
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)).Decode(req); err != nil {
		return badRequest("malformed request body: %v", err)
	}
	return nil
}

// queryRequestFromURL decodes the GET /query parameter form.
func queryRequestFromURL(r *http.Request, req *QueryRequest) *httpError {
	q := r.URL.Query()
	req.Estimator = q.Get("estimator")
	if raw := q.Get("predicate"); raw != "" {
		var p query.Predicate
		if err := json.Unmarshal([]byte(raw), &p); err != nil {
			return badRequest("malformed predicate parameter: %v", err)
		}
		req.Predicate = &p
	}
	return nil
}

// urlVersion parses the optional ?version=N parameter; -1 means absent.
func urlVersion(r *http.Request) (int, *httpError) {
	raw := r.URL.Query().Get("version")
	if raw == "" {
		return -1, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return -1, badRequest("version must be a non-negative integer, got %q", raw)
	}
	return v, nil
}
