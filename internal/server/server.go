package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/store"
)

// Options configure the HTTP service. The zero value requests the defaults
// noted on each field.
type Options struct {
	// Timeout bounds the handling of a single request, queueing included
	// (default 5s).
	Timeout time.Duration
	// MaxConcurrent bounds how many estimator evaluations may run at once;
	// excess requests queue until a slot frees or their timeout fires
	// (default 64).
	MaxConcurrent int
	// CacheSize bounds the LRU result cache in entries; <= -1 disables
	// caching, 0 selects the default 4096.
	CacheSize int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds how many queries one POST /query/batch call may
	// carry (default 1024, hard cap query.MaxBatchItems).
	MaxBatch int
	// Store, when non-nil, backs the snapshot admin endpoints
	// (GET /snapshots, POST /snapshots/{dataset}) and the versioned-serving
	// endpoints (/query?version=N, /branch, /diff); nil serves 501 on them.
	Store *store.Store
	// HistoryBytes bounds the historical-estimator cache behind
	// time-travel queries, in summed estimator ApproxBytes (<= 0 selects
	// 4 MiB). Ignored without a Store.
	HistoryBytes int64
	// NodeName identifies this node in a fleet; it is echoed on /healthz
	// and /metrics so routers and operators can tell replicas apart.
	// Empty is fine for single-node deployments.
	NodeName string
	// SyncNotify, when non-nil, is invoked by POST /sync/notify with the
	// dataset named in the request body ("" = all) — the hook a replica's
	// sync loop hangs off so an ingest node can trigger an immediate pull
	// instead of waiting for the next poll.
	SyncNotify func(dataset string)
	// Now overrides the wall clock, for tests (default time.Now).
	Now func() time.Time
}

func (o *Options) setDefaults() {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxBatch > query.MaxBatchItems {
		o.MaxBatch = query.MaxBatchItems
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Server is the summaryd request handler: it answers counting and group-by
// queries over the registered estimators with caching, admission control,
// and metrics. Create it with New and mount Handler on an http.Server.
type Server struct {
	reg     *Registry
	cache   *Cache
	history *History // nil without a store
	metrics *Metrics
	sem     chan struct{}
	opts    Options
	mux     *http.ServeMux
	routes  []string

	livesMu sync.RWMutex
	lives   map[string]*Live
}

// New builds a server over the registry. Estimators may keep being
// registered after New; requests see them immediately.
func New(reg *Registry, opts Options) *Server {
	opts.setDefaults()
	s := &Server{
		reg:     reg,
		cache:   NewCache(opts.CacheSize),
		metrics: NewMetrics(opts.Now()),
		sem:     make(chan struct{}, opts.MaxConcurrent),
		opts:    opts,
		lives:   make(map[string]*Live),
	}
	if opts.Store != nil {
		s.history = NewHistory(opts.Store, opts.HistoryBytes, opts.Now)
	}
	s.mux = http.NewServeMux()
	s.handle("/query", s.handleQuery)
	s.handle("/query/batch", s.handleBatch)
	s.handle("/groupby", s.handleGroupBy)
	s.handle("/estimators", s.handleEstimators)
	s.handle("/healthz", s.handleHealthz)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/snapshots", s.handleSnapshotList)
	s.handle("/snapshots/", s.handleSnapshotSave)
	s.handle("/ingest/", s.handleIngest)
	s.handle("/branch/", s.handleBranch)
	s.handle("/diff/", s.handleDiff)
	s.handle("/sync/snapshot", s.handleSyncSnapshot)
	s.handle("/sync/notify", s.handleSyncNotify)
	return s
}

// handle registers one route and records its pattern for Routes().
func (s *Server) handle(pattern string, fn http.HandlerFunc) {
	s.mux.HandleFunc(pattern, fn)
	s.routes = append(s.routes, pattern)
}

// Routes returns every registered HTTP route pattern, sorted. It is the
// source of truth the documentation lint gate (cigates docs) checks
// docs/API.md against, so an endpoint cannot be added — or renamed —
// without its documentation following along.
func (s *Server) Routes() []string {
	out := append([]string(nil), s.routes...)
	sort.Strings(out)
	return out
}

// AttachLive enables POST /ingest/{dataset} for a live dataset and hands
// it the server's result cache so refreshes reclaim replaced entries.
// Attaching may happen before or after serving starts.
func (s *Server) AttachLive(l *Live) {
	l.attachCache(s.cache)
	s.livesMu.Lock()
	s.lives[l.Dataset()] = l
	s.livesMu.Unlock()
}

// live looks up an attached live dataset.
func (s *Server) live(dataset string) (*Live, bool) {
	s.livesMu.RLock()
	defer s.livesMu.RUnlock()
	l, ok := s.lives[dataset]
	return l, ok
}

// liveStatuses returns the status of every attached live dataset, sorted
// by name.
func (s *Server) liveStatuses() []LiveStatus {
	s.livesMu.RLock()
	lives := make([]*Live, 0, len(s.lives))
	for _, l := range s.lives {
		lives = append(lives, l)
	}
	s.livesMu.RUnlock()
	out := make([]LiveStatus, 0, len(lives))
	for _, l := range lives {
		out = append(out, l.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}

// Handler returns the HTTP handler serving all summaryd endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (for tests and metrics).
func (s *Server) Cache() *Cache { return s.cache }

// --- wire types -------------------------------------------------------

// QueryRequest is the body of POST /query. A null/omitted predicate asks
// for the full relation cardinality. Version > 0 answers from that
// retained snapshot of the estimator's dataset key instead of the live
// entry (time travel); a ?version=N URL parameter overrides the body
// field on both GET and POST.
type QueryRequest struct {
	Estimator string           `json:"estimator"`
	Predicate *query.Predicate `json:"predicate,omitempty"`
	Version   int              `json:"version,omitempty"`
}

// QueryResponse is the body of a successful POST /query. Version echoes
// the snapshot version that answered (0 = the live estimator).
type QueryResponse struct {
	Estimator string  `json:"estimator"`
	Version   int     `json:"version,omitempty"`
	Count     float64 `json:"count"`
	Cached    bool    `json:"cached"`
	LatencyNS int64   `json:"latency_ns"`
}

// GroupByRequest is the body of POST /groupby. Version works as on
// /query.
type GroupByRequest struct {
	Estimator string           `json:"estimator"`
	Predicate *query.Predicate `json:"predicate,omitempty"`
	GroupBy   []int            `json:"group_by"`
	Version   int              `json:"version,omitempty"`
}

// GroupRow is one group of a group-by answer.
type GroupRow struct {
	Values   []int   `json:"values"`
	Estimate float64 `json:"estimate"`
}

// GroupByResponse is the body of a successful POST /groupby.
type GroupByResponse struct {
	Estimator string     `json:"estimator"`
	Version   int        `json:"version,omitempty"`
	Groups    []GroupRow `json:"groups"`
	Cached    bool       `json:"cached"`
	LatencyNS int64      `json:"latency_ns"`
}

// EstimatorInfo describes one registered estimator on GET /estimators.
// Domain sizes let remote clients (cmd/loadgen) generate schema-compatible
// workloads without sharing code with the server.
type EstimatorInfo struct {
	Name        string   `json:"name"`
	ApproxBytes int64    `json:"approx_bytes"`
	NumAttrs    int      `json:"num_attrs"`
	AttrNames   []string `json:"attr_names"`
	DomainSizes []int    `json:"domain_sizes"`
	// Generation counts the hot-swapped versions served under this name
	// (1 = the initial build or restore).
	Generation uint64 `json:"generation"`
}

// EstimatorsResponse is the body of GET /estimators.
type EstimatorsResponse struct {
	Estimators []EstimatorInfo `json:"estimators"`
}

// IngestRequest is the JSON body of POST /ingest/{dataset}: a batch of
// already-encoded rows (domain value indexes, schema order). CSV bodies
// (Content-Type: text/csv) carry raw values instead — labels for
// categorical attributes, numbers for binned ones — and are encoded
// server-side.
type IngestRequest struct {
	Rows [][]int `json:"rows"`
}

// MetricsResponse is the body of GET /metrics.
type MetricsResponse struct {
	MetricsSnapshot
	// Node is the fleet identity of this summaryd (Options.NodeName);
	// absent on single-node deployments.
	Node       string          `json:"node,omitempty"`
	Cache      CacheStats      `json:"cache"`
	Estimators []EstimatorInfo `json:"estimators"`
	// Datasets reports per-dataset ingestion state (generation, pending
	// rows = staleness) for every live dataset; empty when ingestion is
	// not enabled.
	Datasets []LiveStatus `json:"datasets,omitempty"`
	// History reports the historical-estimator cache behind time-travel
	// queries; absent without a snapshot store.
	History *HistoryStats `json:"history,omitempty"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// EstimatorGenerationHeader is the response header on /query, /groupby, and
// /query/batch carrying the generation of the live registry entry that
// answered. Time-travel answers (version > 0) omit it — they are immutable
// and identified by snapshot version. The fleet router's read cache stamps
// its entries with this header, so a routed ingest hot swap invalidates
// router entries exactly like node-local ones.
const EstimatorGenerationHeader = "X-Estimator-Generation"

// setGenerationHeader stamps the answering live entry's generation on the
// response; snapshot entries are immutable and carry no generation.
func setGenerationHeader(w http.ResponseWriter, ent Entry) {
	if ent.Snapshot == 0 {
		w.Header().Set(EstimatorGenerationHeader, strconv.FormatUint(ent.Generation, 10))
	}
}

// --- handlers ---------------------------------------------------------

// httpError is an error carrying the HTTP status it should be reported
// with.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// handleQuery serves POST /query (JSON body) and GET /query (URL
// parameters: estimator, version, and an optional URL-encoded JSON
// predicate — the curl-able time-travel form). On both methods a
// ?version=N URL parameter overrides the body's version field.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	var req QueryRequest
	run := func(ctx context.Context) (interface{}, error) {
		if v, herr := urlVersion(r); herr != nil {
			return nil, herr
		} else if v >= 0 {
			req.Version = v
		}
		ent, key, herr := s.admitQuery(req.Estimator, req.Version, "c", req.Predicate, nil)
		if herr != nil {
			return nil, herr
		}
		setGenerationHeader(w, ent)
		if v, ok := s.cache.Get(key); ok {
			return QueryResponse{Estimator: ent.Name, Version: ent.Snapshot, Count: v.(float64), Cached: true}, nil
		}
		v, herr2 := s.execute(ctx, func() (interface{}, error) {
			return ent.Estimator.EstimateCount(req.Predicate)
		})
		if herr2 != nil {
			return nil, herr2
		}
		count := v.(float64)
		s.cache.Put(key, count)
		return QueryResponse{Estimator: ent.Name, Version: ent.Snapshot, Count: count}, nil
	}
	finish := func(resp interface{}, latency time.Duration) interface{} {
		qr := resp.(QueryResponse)
		qr.LatencyNS = latency.Nanoseconds()
		return qr
	}
	var err error
	if r.Method == http.MethodGet {
		if herr := queryRequestFromURL(r, &req); herr != nil {
			writeJSON(w, herr.status, errorResponse{Error: herr.msg})
			err = herr
		} else {
			err = s.runTimed(w, r, run, finish)
		}
	} else {
		err = s.withRequest(w, r, &req, run, finish)
	}
	s.metrics.Record(s.opts.Now().Sub(start), err != nil)
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

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	var req GroupByRequest
	err := s.withRequest(w, r, &req, func(ctx context.Context) (interface{}, error) {
		if v, herr := urlVersion(r); herr != nil {
			return nil, herr
		} else if v >= 0 {
			req.Version = v
		}
		ent, key, herr := s.admitQuery(req.Estimator, req.Version, "g", req.Predicate, req.GroupBy)
		if herr != nil {
			return nil, herr
		}
		setGenerationHeader(w, ent)
		if v, ok := s.cache.Get(key); ok {
			return GroupByResponse{Estimator: ent.Name, Version: ent.Snapshot, Groups: v.([]GroupRow), Cached: true}, nil
		}
		v, herr2 := s.execute(ctx, func() (interface{}, error) {
			return ent.Estimator.EstimateGroupBy(req.GroupBy, req.Predicate)
		})
		if herr2 != nil {
			return nil, herr2
		}
		rows := toGroupRows(v.([]core.GroupEstimate))
		s.cache.Put(key, rows)
		return GroupByResponse{Estimator: ent.Name, Version: ent.Snapshot, Groups: rows}, nil
	}, func(resp interface{}, latency time.Duration) interface{} {
		gr := resp.(GroupByResponse)
		gr.LatencyNS = latency.Nanoseconds()
		return gr
	})
	s.metrics.Record(s.opts.Now().Sub(start), err != nil)
}

func (s *Server) handleEstimators(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	writeJSON(w, http.StatusOK, EstimatorsResponse{Estimators: s.estimatorInfos()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	snap := s.metrics.Snapshot(s.opts.Now())
	resp := map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": snap.UptimeSeconds,
		"estimators":     s.reg.Len(),
	}
	if s.opts.NodeName != "" {
		resp["node"] = s.opts.NodeName
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	resp := MetricsResponse{
		MetricsSnapshot: s.metrics.Snapshot(s.opts.Now()),
		Node:            s.opts.NodeName,
		Cache:           s.cache.Stats(),
		Estimators:      s.estimatorInfos(),
		Datasets:        s.liveStatuses(),
	}
	if s.history != nil {
		hs := s.history.Stats()
		resp.History = &hs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleIngest serves POST /ingest/{dataset}: it appends a batch of rows
// to the dataset's live relation and, when the refresh threshold is
// crossed, hot-swaps refreshed estimators before responding. The append
// and refresh run on the same bounded worker pool as query evaluation,
// under the per-request timeout, so an ingest burst cannot hold
// unbounded goroutines: excess requests queue for a slot (503 on
// admission timeout) and a straggling refresh is abandoned with a 504
// (it still completes server-side; the response is what gives up).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := s.opts.Now()
	failed := false
	defer func() { s.metrics.Record(s.opts.Now().Sub(start), failed) }()
	fail := func(status int, msg string) {
		failed = true
		writeJSON(w, status, errorResponse{Error: msg})
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "use POST")
		return
	}
	dataset := strings.TrimPrefix(r.URL.Path, "/ingest/")
	if dataset == "" || strings.Contains(dataset, "/") {
		fail(http.StatusBadRequest, "use POST /ingest/{dataset} with a single-segment dataset name")
		return
	}
	live, ok := s.live(dataset)
	if !ok {
		fail(http.StatusNotFound, fmt.Sprintf("dataset %q does not accept ingestion (no live relation attached)", dataset))
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var rows [][]int
	contentType := r.Header.Get("Content-Type")
	if strings.HasPrefix(contentType, "text/csv") {
		decoded, err := DecodeCSVRows(live.Mutable().Schema(), body)
		if err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		rows = decoded
	} else {
		var req IngestRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			fail(http.StatusBadRequest, fmt.Sprintf("malformed request body: %v", err))
			return
		}
		if err := DecodeJSONRows(live.Mutable().Schema(), req.Rows); err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		rows = req.Rows
	}
	if len(rows) == 0 {
		fail(http.StatusBadRequest, "ingest batch is empty")
		return
	}

	// Only admission runs under the deadline. Once Ingest starts, its rows
	// may land at any moment, so the handler waits for it and reports what
	// it did: a timeout after the append would tell the client the rows
	// were lost, and a retry would ingest them twice.
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	if herr := s.admit(ctx); herr != nil {
		fail(herr.status, herr.msg)
		return
	}
	res, err := func() (IngestResult, error) {
		defer func() { <-s.sem }()
		return live.Ingest(rows)
	}()
	if err != nil {
		// An Ingest error always means nothing was appended (validation
		// failed) — the client's fault, not the server's; refresh problems
		// after a successful append arrive in refresh_error on a 200
		// instead, so clients never retry rows that landed.
		fail(http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) estimatorInfos() []EstimatorInfo {
	entries := s.reg.Entries()
	out := make([]EstimatorInfo, 0, len(entries))
	for _, e := range entries {
		info := EstimatorInfo{
			Name:        e.Name,
			ApproxBytes: e.Estimator.ApproxBytes(),
			NumAttrs:    e.Schema.NumAttrs(),
			DomainSizes: e.Schema.DomainSizes(),
			Generation:  e.Generation,
		}
		for i := 0; i < e.Schema.NumAttrs(); i++ {
			info.AttrNames = append(info.AttrNames, e.Schema.Attr(i).Name())
		}
		out = append(out, info)
	}
	return out
}

// --- request plumbing -------------------------------------------------

// withRequest decodes a POST body into req, runs fn under the per-request
// timeout, stamps the latency via finish, and writes either the response
// or a JSON error. It returns the error fn produced (nil on success) so
// handlers can account failures.
func (s *Server) withRequest(w http.ResponseWriter, r *http.Request, req interface{},
	fn func(ctx context.Context) (interface{}, error),
	finish func(resp interface{}, latency time.Duration) interface{}) error {
	if r.Method != http.MethodPost {
		err := &httpError{status: http.StatusMethodNotAllowed, msg: "use POST"}
		writeJSON(w, err.status, errorResponse{Error: err.msg})
		return err
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(req); err != nil {
		herr := badRequest("malformed request body: %v", err)
		writeJSON(w, herr.status, errorResponse{Error: herr.msg})
		return herr
	}
	return s.runTimed(w, r, fn, finish)
}

// runTimed runs fn under the per-request timeout, stamps the latency via
// finish, and writes either the response or a JSON error — the shared
// tail of the POST (body) and GET (URL parameter) request forms.
func (s *Server) runTimed(w http.ResponseWriter, r *http.Request,
	fn func(ctx context.Context) (interface{}, error),
	finish func(resp interface{}, latency time.Duration) interface{}) error {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	start := s.opts.Now()
	resp, err := fn(ctx)
	if err != nil {
		status := http.StatusInternalServerError
		var herr *httpError
		if errors.As(err, &herr) {
			status = herr.status
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return err
	}
	writeJSON(w, http.StatusOK, finish(resp, s.opts.Now().Sub(start)))
	return nil
}

// admitQuery validates the request against the registry (version <= 0,
// the live estimator) or the historical cache (version > 0, a retained
// snapshot) and returns the target entry plus the canonical cache key.
// kind is "c" for counts, "g" for group-bys.
func (s *Server) admitQuery(estimator string, version int, kind string, pred *query.Predicate, groupBy []int) (Entry, string, error) {
	ent, herr := s.lookupEntry(estimator, version)
	if herr != nil {
		return Entry{}, "", herr
	}
	key, err := queryKey(ent, kind, pred, groupBy)
	if err != nil {
		return Entry{}, "", err
	}
	return ent, key, nil
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
// the canonical cache key. It is shared by the single-query and batch
// paths, so a batched query and its sequential twin always hit the same
// cache entry.
func queryKey(ent Entry, kind string, pred *query.Predicate, groupBy []int) (string, error) {
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
	// one Builder rather than string concatenation: the batch path calls
	// this once per item.
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
	b.WriteString(kind)
	if kind == "g" {
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

// admit takes a worker slot, queueing for one under ctx; the caller must
// release it with <-s.sem. A free slot is taken even when ctx has already
// expired, so the 503 means only that the pool stayed saturated.
func (s *Server) admit(ctx context.Context) *httpError {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &httpError{status: http.StatusServiceUnavailable, msg: "server saturated: timed out waiting for a worker slot"}
	}
}

// execute runs fn on the bounded worker pool under ctx: it queues for a
// slot, then runs fn in a goroutine so a timeout can abandon (not cancel)
// a straggling evaluation without unbounding the pool — the slot is only
// released once fn actually returns.
func (s *Server) execute(ctx context.Context, fn func() (interface{}, error)) (interface{}, *httpError) {
	if herr := s.admit(ctx); herr != nil {
		return nil, herr
	}
	type result struct {
		v   interface{}
		err error
	}
	done := make(chan result, 1)
	go func() {
		defer func() { <-s.sem }()
		v, err := fn()
		done <- result{v, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			return nil, &httpError{status: http.StatusUnprocessableEntity, msg: res.err.Error()}
		}
		return res.v, nil
	case <-ctx.Done():
		return nil, &httpError{status: http.StatusGatewayTimeout, msg: "query timed out"}
	}
}

func toGroupRows(groups []core.GroupEstimate) []GroupRow {
	rows := make([]GroupRow, len(groups))
	for i, g := range groups {
		rows[i] = GroupRow{Values: g.Values, Estimate: g.Estimate}
	}
	return rows
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
