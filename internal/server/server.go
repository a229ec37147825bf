// Package server implements the Dashboard Manager substitute: an HTTP/JSON
// service over a GraphCache instance. The demo paper drives GC through an
// HTML/JavaScript front-end on a cloud deployment; this package exposes
// the same information — query execution with the Query Journey
// quantities, cache contents, operational statistics, and graph
// visualizations — as a JSON API plus a minimal HTML status page.
package server

// The server is context-strict: handlers thread r.Context() into the
// kernel so a disconnected client cancels its own batch; minting a root
// context here would detach that work from the request lifetime.
//
//gclint:ctxstrict

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"strconv"
	"strings"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/viz"
)

// maxBatchWorkers caps the per-request worker pool a /api/query/batch
// caller may ask for, bounding the goroutines one request can spawn.
// maxBatchQueries and maxBodyBytes bound how much work and memory one
// unauthenticated request can pin (even the streaming variant buffers up
// to the whole batch when the client reads slowly).
const (
	maxBatchWorkers = 32
	maxBatchQueries = 256
	maxBodyBytes    = 8 << 20
)

// Server wires a cache and its live dataset into an http.Handler.
// Handlers are served concurrently by net/http; the sharded cache kernel
// processes the resulting in-flight queries in parallel. Dataset reads go
// through the cache's method view, so graphs added or removed at runtime
// (POST /api/dataset/graphs, DELETE /api/dataset/graphs/{id}) are visible
// immediately and consistently.
type Server struct {
	cache *core.Cache
	mux   *http.ServeMux
	// logf records server-side failures (JSON encode errors and the like);
	// defaults to log.Printf, overridable for tests.
	logf func(format string, args ...any)
	// stateSaver persists the cache when POST /api/state/save asks for it.
	// The daemon owns the state path (and the temp-file-plus-rename dance),
	// so it injects the closure via SetStateSaver; while nil the endpoint
	// answers 503.
	stateSaver func() error
}

// New builds the handler over the cache (whose method owns the live
// dataset).
func New(cache *core.Cache) *Server {
	s := &Server{cache: cache, mux: http.NewServeMux(), logf: log.Printf}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("/api/entries", s.handleEntries)
	s.mux.HandleFunc("/api/query", s.handleQuery)
	s.mux.HandleFunc("/api/query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("/api/dataset/graphs", s.handleDatasetGraphs)
	s.mux.HandleFunc("/api/dataset/graphs/", s.handleDatasetGraphByID)
	s.mux.HandleFunc("/api/dataset/", s.handleDataset)
	s.mux.HandleFunc("/api/state/save", s.handleStateSave)
	return s
}

// SetStateSaver wires the POST /api/state/save implementation: fn must
// atomically persist the cache's state (the daemon passes a closure over
// its -state path). Call before serving; a nil saver leaves the endpoint
// answering 503.
func (s *Server) SetStateSaver(fn func() error) { s.stateSaver = fn }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON marshals v up front so encode errors surface as a 500 instead
// of a silently truncated 200 (the status line would already be on the
// wire if we streamed the encoder straight into w).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.logf("server: encoding %T response: %v", v, err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(buf, '\n')); err != nil {
		// Headers are gone; all that's left is recording the failure.
		s.logf("server: writing response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body capped at maxBodyBytes,
// distinguishing an oversized body (413) from malformed JSON (400). It
// writes the error response itself and reports whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	s.writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
	return false
}

// statsResponse mirrors core.Snapshot with JSON-friendly names.
type statsResponse struct {
	Queries           int64   `json:"queries"`
	ExactHits         int64   `json:"exactHits"`
	SubHitQueries     int64   `json:"subHitQueries"`
	SuperHitQueries   int64   `json:"superHitQueries"`
	SubHits           int64   `json:"subHits"`
	SuperHits         int64   `json:"superHits"`
	TestsExecuted     int64   `json:"testsExecuted"`
	TestsSaved        int64   `json:"testsSaved"`
	TestSpeedup       float64 `json:"testSpeedup"`
	HitDetectionTests int64   `json:"hitDetectionTests"`
	HitScanEntries    int64   `json:"hitScanEntries"`
	HitFullChecks     int64   `json:"hitFullChecks"`
	HitIndexPruned    int64   `json:"hitIndexPruned"`
	Admissions        int64   `json:"admissions"`
	Evictions         int64   `json:"evictions"`
	WindowTurns       int64   `json:"windowTurns"`
	CachedEntries     int     `json:"cachedEntries"`
	CacheBytes        int     `json:"cacheBytes"`
	Shards            int     `json:"shards"`
	Policy            string  `json:"policy"`
	// WindowPending is the total number of entries staged for admission,
	// summed from ShardWindows so the two agree under concurrent traffic.
	// ShardWindows and ShardTurns break occupancy and window turns down
	// per shard; ShardTurns sums to windowTurns.
	WindowPending int     `json:"windowPending"`
	ShardWindows  []int   `json:"shardWindows"`
	ShardTurns    []int64 `json:"shardTurns"`
	// DatasetSize is the number of live (queryable) dataset graphs;
	// DatasetIDSpace additionally counts tombstoned ids. Epoch counts
	// dataset mutations; DatasetAdds/DatasetRemoves split them and
	// MaintenanceTests prices the answer-set reconciliation work.
	DatasetSize      int   `json:"datasetSize"`
	DatasetIDSpace   int   `json:"datasetIdSpace"`
	Epoch            int64 `json:"epoch"`
	DatasetAdds      int64 `json:"datasetAdds"`
	DatasetRemoves   int64 `json:"datasetRemoves"`
	MaintenanceTests int64 `json:"maintenanceTests"`
	// FilterInserts/FilterRebuilds split how additions maintained the
	// method's filter (incremental O(graph) insert vs full O(dataset)
	// rebuild).
	FilterInserts  int64 `json:"filterInserts"`
	FilterRebuilds int64 `json:"filterRebuilds"`
	// AnswerBytes is the intern pool's account — the distinct canonical
	// answer sets, each charged once however many entries share it
	// (cacheBytes = static entry bytes + answerBytes). InternHits and
	// InternMisses count pool acquisitions that reused vs inserted a
	// canonical set.
	AnswerBytes  int64 `json:"answerBytes"`
	InternHits   int64 `json:"internHits"`
	InternMisses int64 `json:"internMisses"`
	// StateBodyFaults counts answer bodies faulted in from the snapshot
	// file after a lazy state restore (0 when the cache booted cold or
	// restored eagerly).
	StateBodyFaults int64 `json:"stateBodyFaults"`
}

func (s *Server) statsResponse() statsResponse {
	snap := s.cache.Stats()
	ds := s.cache.DatasetInfo()
	shardStats := s.cache.ShardStats()
	windows := make([]int, len(shardStats))
	turns := make([]int64, len(shardStats))
	pending := 0
	for i, st := range shardStats {
		windows[i] = st.WindowLen
		turns[i] = st.Turns
		pending += st.WindowLen
	}
	return statsResponse{
		Queries:           snap.Queries,
		ExactHits:         snap.ExactHits,
		SubHitQueries:     snap.SubHitQueries,
		SuperHitQueries:   snap.SuperHitQueries,
		SubHits:           snap.SubHits,
		SuperHits:         snap.SuperHits,
		TestsExecuted:     snap.TestsExecuted,
		TestsSaved:        snap.TestsSaved,
		TestSpeedup:       snap.TestSpeedup(),
		HitDetectionTests: snap.HitDetectionTests,
		HitScanEntries:    snap.HitScanEntries,
		HitFullChecks:     snap.HitFullChecks,
		HitIndexPruned:    snap.HitIndexPruned,
		Admissions:        snap.Admissions,
		Evictions:         snap.Evictions,
		WindowTurns:       snap.WindowTurns,
		CachedEntries:     s.cache.Len(),
		CacheBytes:        s.cache.Bytes(),
		Shards:            s.cache.Shards(),
		Policy:            s.cache.PolicyName(),
		WindowPending:     pending,
		ShardWindows:      windows,
		ShardTurns:        turns,
		DatasetSize:       ds.Live,
		DatasetIDSpace:    ds.Size,
		Epoch:             ds.Epoch,
		DatasetAdds:       snap.DatasetAdds,
		DatasetRemoves:    snap.DatasetRemoves,
		MaintenanceTests:  snap.MaintenanceTests,
		FilterInserts:     snap.FilterInserts,
		FilterRebuilds:    snap.FilterRebuilds,
		AnswerBytes:       snap.AnswerBytes,
		InternHits:        snap.InternHits,
		InternMisses:      snap.InternMisses,
		StateBodyFaults:   snap.StateBodyFaults,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.writeJSON(w, http.StatusOK, s.statsResponse())
}

type entryResponse struct {
	ID         int     `json:"id"`
	Type       string  `json:"type"`
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	Answers    int     `json:"answers"`
	Hits       int64   `json:"hits"`
	SavedTests float64 `json:"savedTests"`
	LastUsed   int64   `json:"lastUsed"`
}

func (s *Server) handleEntries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	entries := s.cache.Entries()
	out := make([]entryResponse, 0, len(entries))
	for _, e := range entries {
		out = append(out, entryResponse{
			ID:         e.ID,
			Type:       e.Type.String(),
			Vertices:   e.Graph.N(),
			Edges:      e.Graph.M(),
			Answers:    e.Answers().Count(),
			Hits:       e.Hits,
			SavedTests: e.SavedTests,
			LastUsed:   e.LastUsed,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// queryRequest is the POST /api/query payload: a graph in the text codec
// plus the query type.
type queryRequest struct {
	// Graph holds one graph in the gSpan text format ("t # 0\nv 0 1\n...").
	Graph string `json:"graph"`
	// Type is "subgraph" (default) or "supergraph".
	Type string `json:"type"`
}

type queryResponse struct {
	Answers        []int       `json:"answers"`
	Sure           []int       `json:"sure"`
	Excluded       []int       `json:"excluded"`
	Tests          int         `json:"tests"`
	BaseCandidates int         `json:"baseCandidates"`
	TestSpeedup    float64     `json:"testSpeedup"`
	ExactHit       bool        `json:"exactHit"`
	Hits           []hitDetail `json:"hits"`
}

type hitDetail struct {
	Entry      int    `json:"entry"`
	Kind       string `json:"kind"`
	SavedTests int    `json:"savedTests"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	g, qt, err := parseQuery(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.cache.Execute(g, qt)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "execute: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, toQueryResponse(res))
}

// toQueryResponse projects a kernel Result into the JSON shape.
func toQueryResponse(res *core.Result) queryResponse {
	resp := queryResponse{
		Answers:        res.Answers.Indices(),
		Sure:           res.Sure.Indices(),
		Excluded:       res.Excluded.Indices(),
		Tests:          res.Tests,
		BaseCandidates: res.BaseCandidates,
		TestSpeedup:    res.TestSpeedup(),
		ExactHit:       res.ExactHit,
		Hits:           make([]hitDetail, 0, len(res.Hits)),
	}
	for _, h := range res.Hits {
		resp.Hits = append(resp.Hits, hitDetail{Entry: h.EntryID, Kind: h.Kind.String(), SavedTests: h.SavedTests})
	}
	return resp
}

// batchRequest is the POST /api/query/batch payload: a list of queries
// processed through the cache's worker pool in one round trip. With
// ?stream=1 the response is NDJSON — one batchItem per line, written and
// flushed as each query completes — instead of a single buffered
// batchResponse.
type batchRequest struct {
	Queries []queryRequest `json:"queries"`
	// Workers sizes the worker pool; 0 defaults to 4, capped at
	// maxBatchWorkers.
	Workers int `json:"workers"`
}

// batchItem is one per-query outcome; Error is set instead of the result
// fields when that query failed (the rest of the batch still completes).
type batchItem struct {
	Index int            `json:"index"`
	Error string         `json:"error,omitempty"`
	Query *queryResponse `json:"result,omitempty"`
}

type batchResponse struct {
	Results []batchItem `json:"results"`
	Workers int         `json:"workers"`
}

// parseQuery decodes one queryRequest into a pattern graph and semantics.
func parseQuery(req queryRequest) (*graph.Graph, ftv.QueryType, error) {
	gs, err := graph.ReadAll(strings.NewReader(req.Graph))
	if err != nil {
		return nil, 0, fmt.Errorf("bad graph: %v", err)
	}
	if len(gs) != 1 {
		return nil, 0, fmt.Errorf("want exactly one graph, got %d", len(gs))
	}
	switch req.Type {
	case "", "subgraph":
		return gs[0], ftv.Subgraph, nil
	case "supergraph":
		return gs[0], ftv.Supergraph, nil
	default:
		return nil, 0, fmt.Errorf("unknown query type %q", req.Type)
	}
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		s.writeError(w, http.StatusRequestEntityTooLarge, "batch of %d queries exceeds the %d-query limit", len(req.Queries), maxBatchQueries)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > maxBatchWorkers {
		workers = maxBatchWorkers
	}

	// Malformed queries are rejected positionally without aborting the
	// batch; only the well-formed remainder reaches the cache.
	items := make([]batchItem, len(req.Queries))
	reqs := make([]core.Request, 0, len(req.Queries))
	slots := make([]int, 0, len(req.Queries))
	for i, q := range req.Queries {
		items[i].Index = i
		g, qt, err := parseQuery(q)
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		reqs = append(reqs, core.Request{Graph: g, Type: qt})
		slots = append(slots, i)
	}

	if streamRequested(r) {
		s.streamBatch(w, r, items, reqs, slots, workers)
		return
	}

	for j, out := range s.cache.ExecuteAll(reqs, workers) {
		i := slots[j]
		if out.Err != nil {
			items[i].Error = out.Err.Error()
			continue
		}
		resp := toQueryResponse(out.Result)
		items[i].Query = &resp
	}
	s.writeJSON(w, http.StatusOK, batchResponse{Results: items, Workers: workers})
}

// streamRequested reports whether the batch caller asked for the NDJSON
// streaming variant (?stream=1 / true / yes).
func streamRequested(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("stream")) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// streamBatch is the ?stream=1 pipeline: instead of buffering the whole
// batch, each outcome is written as one NDJSON line — and flushed — the
// moment its query finishes, so clients see the first answers while the
// tail of the batch is still verifying. Malformed queries (already marked
// in items) are emitted first; cache outcomes follow in completion order,
// each tagged with its request index. The batch runs under the request
// context: when the client disconnects (or a write fails, which cancels
// the same context at the next flush), the kernel stops dispatching the
// remaining queries — only the in-flight ones run to completion — instead
// of verifying a whole batch nobody will read.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, items []batchItem, reqs []core.Request, slots []int, workers int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Batch-Workers", strconv.Itoa(workers))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(item batchItem) bool {
		if err := enc.Encode(item); err != nil {
			s.logf("server: streaming batch item %d: %v", item.Index, err)
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, item := range items {
		if item.Error == "" {
			continue // reaches the cache; emitted on completion below
		}
		if !emit(item) {
			return
		}
	}
	for so := range s.cache.ExecuteAllStreamContext(r.Context(), reqs, workers) {
		item := batchItem{Index: slots[so.Index]}
		if so.Err != nil {
			item.Error = so.Err.Error()
		} else {
			resp := toQueryResponse(so.Result)
			item.Query = &resp
		}
		if !emit(item) {
			return
		}
	}
}

// datasetGraphRequest is the POST /api/dataset/graphs payload: one graph
// in the text codec to append to the live dataset.
type datasetGraphRequest struct {
	Graph string `json:"graph"`
}

// datasetMutationResponse reports one dataset mutation: the affected id
// and the dataset shape after the mutation.
type datasetMutationResponse struct {
	ID          int   `json:"id"`
	DatasetSize int   `json:"datasetSize"`
	Epoch       int64 `json:"epoch"`
}

// handleDatasetGraphs serves POST /api/dataset/graphs: append a graph to
// the live dataset. Cached answer sets are maintained exactly by the
// kernel (eagerly or lazily per its configuration).
func (s *Server) handleDatasetGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req datasetGraphRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	gs, err := graph.ReadAll(strings.NewReader(req.Graph))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	if len(gs) != 1 {
		s.writeError(w, http.StatusBadRequest, "want exactly one graph, got %d", len(gs))
		return
	}
	id, err := s.cache.AddGraph(gs[0])
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, "add graph: %v", err)
		return
	}
	ds := s.cache.DatasetInfo()
	s.writeJSON(w, http.StatusCreated, datasetMutationResponse{ID: id, DatasetSize: ds.Live, Epoch: ds.Epoch})
}

// handleDatasetGraphByID serves DELETE /api/dataset/graphs/{id}: tombstone
// a live dataset graph. Its bit is cleared from every cached answer set
// before the call returns.
func (s *Server) handleDatasetGraphByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		s.writeError(w, http.StatusMethodNotAllowed, "DELETE only")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/api/dataset/graphs/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "no dataset graph %q", idStr)
		return
	}
	if err := s.cache.RemoveGraph(id); err != nil {
		// An already-tombstoned id is 410 like the GET handler (a retried
		// DELETE reads as "gone", not "never existed"); anything else is
		// an unknown id.
		view := s.cache.Method().View()
		if id >= 0 && id < view.Size() && view.Graph(id) == nil {
			s.writeError(w, http.StatusGone, "remove graph: %v", err)
			return
		}
		s.writeError(w, http.StatusNotFound, "remove graph: %v", err)
		return
	}
	ds := s.cache.DatasetInfo()
	s.writeJSON(w, http.StatusOK, datasetMutationResponse{ID: id, DatasetSize: ds.Live, Epoch: ds.Epoch})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	view := s.cache.Method().View()
	idStr := strings.TrimPrefix(r.URL.Path, "/api/dataset/")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 || id >= view.Size() {
		s.writeError(w, http.StatusNotFound, "no dataset graph %q", idStr)
		return
	}
	g := view.Graph(id)
	if g == nil {
		s.writeError(w, http.StatusGone, "dataset graph %d was removed", id)
		return
	}
	switch r.URL.Query().Get("format") {
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		fmt.Fprint(w, viz.ToDOT(g, viz.Options{Name: fmt.Sprintf("g%d", id), VertexNames: viz.AtomNames}))
	case "ascii":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, viz.ASCII(g, viz.Options{VertexNames: viz.AtomNames}))
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := graph.WriteGraph(w, g); err != nil {
			s.writeError(w, http.StatusInternalServerError, "write: %v", err)
		}
	}
}

// stateSaveResponse reports one successful POST /api/state/save.
type stateSaveResponse struct {
	// Entries is the number of cached queries the snapshot captured.
	Entries int `json:"entries"`
}

// handleStateSave serves POST /api/state/save: persist the cache's state
// through the daemon-injected saver. 503 when the daemon was started
// without a state path.
func (s *Server) handleStateSave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.stateSaver == nil {
		s.writeError(w, http.StatusServiceUnavailable, "state persistence not configured (start the daemon with -state)")
		return
	}
	if err := s.stateSaver(); err != nil {
		s.writeError(w, http.StatusInternalServerError, "saving state: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, stateSaveResponse{Entries: s.cache.Len()})
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>GraphCache</title></head><body>
<h1>GraphCache</h1>
<p>{{.Queries}} queries · speedup {{printf "%.2f" .TestSpeedup}}× in sub-iso tests
· {{.CachedEntries}} cached queries under {{.Policy}} replacement</p>
<ul>
<li>exact hits: {{.ExactHits}}</li>
<li>sub-case hits: {{.SubHits}} (queries: {{.SubHitQueries}})</li>
<li>super-case hits: {{.SuperHits}} (queries: {{.SuperHitQueries}})</li>
<li>tests executed / saved: {{.TestsExecuted}} / {{.TestsSaved}}</li>
<li>dataset: {{.DatasetSize}} live graphs (epoch {{.Epoch}},
{{.DatasetAdds}} added / {{.DatasetRemoves}} removed,
{{.MaintenanceTests}} maintenance tests)</li>
<li>index maintenance: {{.FilterInserts}} incremental inserts /
{{.FilterRebuilds}} rebuilds</li>
</ul>
<p>API: GET /api/stats · GET /api/entries · POST /api/query
· POST /api/query/batch (add ?stream=1 for NDJSON streaming)
· GET /api/dataset/{id}?format=dot|ascii|text
· POST /api/dataset/graphs (append a graph to the live dataset)
· DELETE /api/dataset/graphs/{id} (tombstone a graph; cached answers are
maintained exactly)
· POST /api/state/save (persist the cache to the daemon's -state file)</p>
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		s.writeError(w, http.StatusNotFound, "no route %q", r.URL.Path)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, s.statsResponse())
}
