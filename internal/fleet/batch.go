package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/server"
)

// handleBatch proxies POST /query/batch on both wires. Every decodable
// batch goes through serveBatch, with or without a router cache; a
// malformed, empty or oversized body is forwarded whole so the node's own
// error surface answers (one place decides what a bad batch looks like).
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	binaryReq := strings.HasPrefix(r.Header.Get("Content-Type"), server.BinaryBatchContentType)
	binaryResp := binaryReq
	if accept := r.Header.Get("Accept"); accept != "" {
		binaryResp = strings.Contains(accept, server.BinaryBatchContentType)
	}
	estimator, version, items, ok := decodeBatch(r, body, binaryReq)
	if !ok || len(items) == 0 || len(items) > query.MaxBatchItems {
		rt.forward(w, r, body, -1)
		return
	}
	rt.serveBatch(w, r, estimator, version, items, binaryResp)
}

// decodeBatch decodes a batch body on either wire and resolves its
// snapshot version the way the node does: a ?version=N URL parameter
// overrides the body, and a non-positive version is live (0). ok is false
// for a malformed body or URL version.
func decodeBatch(r *http.Request, body []byte, binaryReq bool) (estimator string, version int, items []query.BatchItem, ok bool) {
	if binaryReq {
		var err error
		if estimator, version, items, err = query.DecodeBatchAt(bytes.NewReader(body)); err != nil {
			return "", 0, nil, false
		}
	} else {
		var req server.BatchQueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", 0, nil, false
		}
		estimator, version, items = req.Estimator, req.Version, req.Items()
	}
	v, ok := urlVersion(r)
	if !ok {
		return "", 0, nil, false
	}
	if v >= 0 {
		version = v
	}
	return estimator, max(version, 0), items, true
}

// serveBatch answers a decoded batch from the router cache where it can
// and fetches only the missing items from the fleet: an all-hit batch
// never leaves the router, a partial hit ships a sub-batch holding just
// the misses (fanned out across healthy nodes past the FanoutBatch
// threshold), and the fetched answers are reassembled positionally and
// cached under the same generation fencing as single reads. Without a
// router cache every item is a miss. Per-item errors (arity mismatch,
// estimator refusal) ride along uncached, exactly as a node reports them.
func (rt *Router) serveBatch(w http.ResponseWriter, r *http.Request, estimator string, version int, items []query.BatchItem, binaryResp bool) {
	answers := make([]query.BatchAnswer, len(items))
	var keys []string
	var missIdx []int
	var genCur uint64
	var genOK bool
	if rt.cache != nil {
		keys = make([]string, len(items))
		genCur, genOK = rt.gens.current(estimator)
	}
	for i, it := range items {
		if rt.cache != nil {
			keys[i] = routerQueryKey(estimator, version, len(it.GroupBy) > 0, it.Pred, it.GroupBy)
			if v, ok := rt.cache.Get(keys[i]); ok {
				if e := v.(cachedRead); version > 0 || (genOK && e.gen == genCur) {
					answers[i] = e.toBatchAnswer()
					continue
				}
			}
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		w.Header().Set(RouterCacheHeader, "hit")
	} else {
		got, gens, herr := rt.fetchMisses(r.Context(), estimator, version, query.Pick(items, missIdx))
		if herr != nil {
			writeError(w, herr.status, herr.msg)
			return
		}
		for j, idx := range missIdx {
			a := got[j]
			answers[idx] = a
			if rt.cache == nil || a.Error != "" {
				continue
			}
			e := cachedRead{estimator: estimator, version: version, isGroup: a.IsGroup, count: a.Count, groups: a.Groups}
			switch {
			case version > 0:
				rt.cache.Put(keys[idx], e)
			case gens[j] == 0:
				// The node did not vouch for a live generation.
			case rt.gens.observe(estimator, gens[j]):
				e.gen = gens[j]
				rt.cache.Put(keys[idx], e)
			default:
				rt.staleSkips.Add(1)
			}
		}
	}
	writeBatchAnswers(w, estimator, version, answers, binaryResp)
}

// fetchMisses fetches the given items from the fleet on the binary wire,
// splitting across healthy nodes when the miss set itself clears the
// fan-out threshold, and returns the answers in item order plus the
// generation each answering node vouched for (0 when it did not). A node
// error keeps its own status so a single-node refusal (unknown estimator,
// oversized batch) reaches the client as the node sent it.
func (rt *Router) fetchMisses(ctx context.Context, estimator string, version int, items []query.BatchItem) ([]query.BatchAnswer, []uint64, *routeError) {
	ways := rt.healthyCount()
	if rt.opts.FanoutBatch < 0 || len(items) < rt.opts.FanoutBatch || ways < 2 {
		ways = 1
	} else {
		rt.fannedOut.Add(1)
	}
	assign := query.AssignRoundRobin(len(items), ways)
	parts := make([][]query.BatchAnswer, len(assign))
	partGens := make([]uint64, len(assign))
	header := http.Header{
		"Content-Type": []string{server.BinaryBatchContentType},
		"Accept":       []string{server.BinaryBatchContentType},
	}
	herr := parallel(len(assign), func(wi int) *routeError {
		frame, err := query.AppendBatchAt(nil, estimator, version, query.Pick(items, assign[wi]))
		if err != nil {
			return &routeError{status: http.StatusBadGateway, msg: err.Error()}
		}
		resp, _, herr := rt.roundTrip(ctx, http.MethodPost, "/query/batch", header, frame, -1)
		if herr != nil {
			return herr
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nodeError(resp)
		}
		if raw := resp.Header.Get(server.EstimatorGenerationHeader); raw != "" {
			if g, perr := strconv.ParseUint(raw, 10, 64); perr == nil {
				partGens[wi] = g
			}
		}
		if _, parts[wi], err = query.DecodeAnswers(resp.Body); err != nil {
			return &routeError{status: http.StatusBadGateway, msg: fmt.Sprintf("sub-batch %d: %v", wi, err)}
		}
		return nil
	})
	if herr != nil {
		return nil, nil, herr
	}
	answers, err := query.GatherAnswers(len(items), assign, parts)
	if err != nil {
		return nil, nil, &routeError{status: http.StatusBadGateway, msg: err.Error()}
	}
	gens := make([]uint64, len(items))
	for wi, indexes := range assign {
		for _, idx := range indexes {
			gens[idx] = partGens[wi]
		}
	}
	return answers, gens, nil
}

// writeBatchAnswers emits a gathered answer stream on the client's wire,
// positionally identical to a single-node answer stream.
func writeBatchAnswers(w http.ResponseWriter, estimator string, version int, answers []query.BatchAnswer, binaryResp bool) {
	if binaryResp {
		frame, err := query.AppendAnswers(nil, estimator, answers)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", server.BinaryBatchContentType)
		_, _ = w.Write(frame)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(server.BatchQueryResponse{Estimator: estimator, Version: version, Answers: server.BatchResults(answers)})
}
