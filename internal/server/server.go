// Package server exposes the LLC simulator as an HTTP JSON service: thin
// handlers over the event-sourced execution engine (internal/engine) and
// the content-addressed result store.
//
// Endpoints:
//
//	POST /v1/runs                    submit a run; 200 + result on a store
//	                                 hit, 202 + job on a miss, 429 when the
//	                                 queue is full
//	GET  /v1/runs/{id}               poll a job (the id is the run's content
//	                                 address; evicted ids fall back to the
//	                                 store)
//	DELETE /v1/runs/{id}             cancel a queued or in-flight run (the
//	                                 context interrupt reaches the simulator
//	                                 core); 409 once terminal
//	GET  /v1/runs/{id}/events        live event stream (SSE): replayed
//	                                 history, then live lifecycle + progress
//	                                 events, heartbeats between
//	GET  /v1/runs/{id}/trace         the run's finished (or in-flight) span
//	                                 tree: admitted -> queued -> simulating
//	                                 (with the simulator's phase
//	                                 breakdown) -> stored; 404 unless the
//	                                 server runs with tracing enabled
//	GET  /v1/runs/{id}/timeline      the run's finished (or in-flight)
//	                                 epoch-resolved telemetry (per-epoch
//	                                 coherence counters, cycle
//	                                 components); ?format=csv for a flat
//	                                 dump (json, the default, or csv;
//	                                 anything else is 400); 404 unless the
//	                                 server runs with tracing enabled
//	POST /v1/campaigns               submit a benchmark x scheme matrix as
//	                                 one campaign (see campaign.go)
//	GET  /v1/campaigns/{id}          campaign progress + per-member status
//	GET  /v1/campaigns/{id}/events   campaign event stream (SSE), member
//	                                 events fanned in, closing on the
//	                                 campaign-terminal event
//	GET  /v1/campaigns/{id}/table    render a completed campaign as a
//	                                 figure-style table
//	GET  /v1/results                 index of every stored run spec
//	                                 (?limit=&offset= pages; ?keys=1 lists
//	                                 raw keys only, same paging)
//	GET  /v1/results/{key}           one raw encoded entry (the export
//	                                 path)
//	PUT  /v1/results/{key}           store a raw encoded entry (validated
//	                                 against its own content address)
//	DELETE /v1/results/{key}         drop an entry from every layer
//	GET  /v1/benchmarks              list the benchmark names
//	GET  /v1/schemes                 the replication policies with
//	                                 their tunables and figure columns
//	GET  /healthz                    liveness probe
//	GET  /stats                      engine, store and queue counters
//	GET  /metrics                    the same counters in the Prometheus
//	                                 text exposition format
//
// Jobs are content-addressed: a run's job id IS its canonical store key,
// so resubmitting an identical request while it is queued or running
// attaches to the existing job instead of enqueueing a duplicate, and
// resubmitting after completion is served straight from the store. The
// engine's bounded worker pool executes jobs in admission order; when its
// queue is full the server sheds load with 429 rather than buffering
// unboundedly. The lifecycle machinery itself — job registry, worker pool,
// FIFO queue, event bus — lives entirely in internal/engine; this package
// only translates HTTP.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"lard"
	"lard/internal/engine"
	"lard/internal/obs"
	"lard/internal/resultstore"
)

// Job states, re-exported from the engine for wire compatibility.
const (
	StatusPending   = engine.StatusPending
	StatusQueued    = engine.StatusQueued
	StatusRunning   = engine.StatusRunning
	StatusDone      = engine.StatusDone
	StatusFailed    = engine.StatusFailed
	StatusCancelled = engine.StatusCancelled
)

// RunFunc executes one simulation through a store. It is a seam for tests;
// production servers use the engine default (lard.RunWithStoreProgress).
type RunFunc = engine.RunFunc

// RunRequest is the POST /v1/runs body.
type RunRequest = engine.Request

// JobView is the wire representation of a job.
type JobView = engine.JobView

// Event is one SSE payload line.
type Event = engine.Event

// errShuttingDown is the engine's shutdown refusal, aliased for tests.
var errShuttingDown = engine.ErrShuttingDown

// Config configures a Server.
type Config struct {
	// Store is the backing result store (required).
	Store *resultstore.Store
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-job queue (default 2x Workers);
	// submissions beyond it are rejected with 429.
	QueueDepth int
	// Run overrides the simulation function (tests only).
	Run RunFunc
	// MaxCompletedJobs bounds the registry of finished jobs. Results live
	// on in the store — an evicted id answers 404 on GET, but resubmitting
	// the same request body is served from the store — so the registry
	// only needs to cover polling windows.
	MaxCompletedJobs int
	// SSEHeartbeat is the keep-alive comment interval on event streams
	// (default 15s; tests shorten it).
	SSEHeartbeat time.Duration
	// Obs is the observability bundle shared by every tier: run tracing
	// (GET /v1/runs/{id}/trace), the latency histograms on /metrics, and
	// the structured logger. Default obs.Nop(): histograms recorded,
	// tracing off, logs discarded.
	Obs *obs.Observer
}

// Server is the run service. Create with New, start the worker pool with
// Start, serve Handler over HTTP, and stop with Shutdown.
type Server struct {
	store     *resultstore.Store
	engine    *engine.Engine
	obs       *obs.Observer
	mux       *http.ServeMux
	handler   http.Handler
	heartbeat time.Duration
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	ob := cfg.Obs
	if ob == nil {
		ob = obs.Nop()
	}
	// The store reports its backend operation latencies into the shared
	// histogram; installed before any traffic can flow.
	cfg.Store.SetOpObserver(func(op string, d time.Duration) {
		ob.StoreOp.ObserveDuration(d, op)
	})
	eng, err := engine.New(engine.Config{
		Store:            cfg.Store,
		Workers:          cfg.Workers,
		QueueDepth:       cfg.QueueDepth,
		Run:              cfg.Run,
		MaxCompletedJobs: cfg.MaxCompletedJobs,
		Obs:              ob,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	hb := cfg.SSEHeartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	s := &Server{store: cfg.Store, engine: eng, obs: ob, heartbeat: hb}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	s.mux.HandleFunc("GET /v1/runs/{id}/timeline", s.handleRunTimeline)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignGet)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleCampaignEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/table", s.handleCampaignTable)
	s.mux.HandleFunc("GET /v1/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResultGet)
	s.mux.HandleFunc("PUT /v1/results/{key}", s.handleResultPut)
	s.mux.HandleFunc("DELETE /v1/results/{key}", s.handleResultDelete)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.withHTTPMetrics(s.mux)
	return s, nil
}

// Start launches the engine's worker pool.
func (s *Server) Start() { s.engine.Start() }

// Handler returns the HTTP handler (the mux wrapped with the
// request-latency observer).
func (s *Server) Handler() http.Handler { return s.handler }

// Engine exposes the underlying execution engine (stats, subscriptions).
func (s *Server) Engine() *engine.Engine { return s.engine }

// Shutdown stops the service gracefully: new submissions are refused,
// workers finish their in-flight simulations, and still-queued jobs are
// failed. It returns ctx.Err() if the workers outlive the context.
func (s *Server) Shutdown(ctx context.Context) error { return s.engine.Shutdown(ctx) }

// maxRequestBody bounds a POST /v1/runs or /v1/campaigns body; a
// campaign over every benchmark and scheme is a few KiB.
const maxRequestBody = 1 << 20

// decodeBody strictly decodes the request body into v: unknown fields and
// any data after the one JSON value are rejected (400), and a body past
// maxRequestBody is cut off unread (413). On failure it has written the
// error response and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Errorf("decode %s: %w", what, err))
	return false
}

// handleSubmit implements POST /v1/runs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, "request", &req) {
		return
	}
	// KeyFor validates the scheme against the table (lard.ValidateScheme)
	// and the options, so a run the facade rejects never enters the queue.
	key, err := lard.KeyFor(req.Benchmark, req.Scheme, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	view, shed, err := s.engine.Submit(key, req)
	switch {
	case errors.Is(err, errShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case shed:
		writeError(w, http.StatusTooManyRequests, errors.New("run queue is full, retry later"))
	case view.Status == StatusDone:
		writeJSON(w, http.StatusOK, view)
	default:
		writeJSON(w, http.StatusAccepted, view)
	}
}

// handleGet implements GET /v1/runs/{id}. An id missing from the job
// registry — typically evicted after completion — falls back to a store
// lookup by content address: the registry only covers polling windows, but
// a computed result is never forgotten while the store holds it.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if v, ok := s.engine.Job(id); ok {
		writeJSON(w, http.StatusOK, v)
		return
	}
	res, found, err := lard.StoredByKey(s.store, id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	writeJSON(w, http.StatusOK, JobView{
		ID:        id,
		Benchmark: res.Benchmark,
		Scheme:    res.Scheme,
		Status:    StatusDone,
		Progress:  1,
		Cached:    true,
		Result:    res,
	})
}

// errTracingOff is the 404 body of /trace and /timeline on a server
// started without -trace, the one switch that records both.
var errTracingOff = errors.New("tracing is disabled on this server (start with -trace)")

// handleRunTrace implements GET /v1/runs/{id}/trace: the run's span tree
// (admitted -> queued -> simulating with the simulator's phase breakdown
// -> stored), finished or in flight. Without one, notRecorded answers.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tree, ok := s.engine.Trace(id)
	if !ok {
		s.notRecorded(w, "trace", id)
		return
	}
	writeJSON(w, http.StatusOK, tree)
}

// handleRunTimeline implements GET /v1/runs/{id}/timeline: the run's
// epoch-resolved telemetry (per-epoch coherence counter deltas and cycle
// components), finished or in flight. ?format=csv answers a flat
// epoch-per-row dump instead of JSON; a format other than json or csv is
// 400. Without a timeline, notRecorded answers.
func (s *Server) handleRunTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "csv" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown timeline format %q (use json or csv, or leave it empty)", format))
		return
	}
	view, ok := s.engine.Timeline(id)
	if !ok {
		s.notRecorded(w, "timeline", id)
		return
	}
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := view.WriteCSV(w); err != nil {
			s.obs.Log.Warn("timeline csv write failed", "run", id, "error", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// notRecorded is the 404 of /trace and /timeline (what names which) for
// an id the tracer holds nothing for. The body tells three cases apart:
// tracing disabled on this server; a run answered from the result store
// without simulating here (a cached job in the registry, or an id only
// the store holds, as after a plain GET on a fresh server); and an id
// never seen, or one whose record was evicted. An id evicted from both
// the job registry and the tracer but still stored reads as the second
// case: after eviction the server cannot tell the two apart. The store
// probe counts no hit.
func (s *Server) notRecorded(w http.ResponseWriter, what, id string) {
	if !s.obs.Tracer.Enabled() {
		writeError(w, http.StatusNotFound, errTracingOff)
		return
	}
	v, inRegistry := s.engine.Job(id)
	stored := inRegistry && v.Cached
	if !inRegistry {
		var err error
		if stored, err = s.store.Has(id); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	if stored {
		writeError(w, http.StatusNotFound, fmt.Errorf("no %s for run %q: it was served from the result store and never simulated on this server", what, id))
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("no %s for run %q (unknown id, or evicted)", what, id))
}

// handleCancel implements DELETE /v1/runs/{id}: cancel a queued or
// in-flight run. A queued run reports cancelled immediately; a running one
// has its simulation interrupted and reports its terminal state through
// the usual channels (poll or SSE). Terminal jobs answer 409 — a completed
// result is store state, deleted via DELETE /v1/results/{key}, not by
// cancelling history.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.engine.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, engine.ErrUnknownJob):
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", r.PathValue("id")))
	case errors.Is(err, engine.ErrTerminal):
		writeJSON(w, http.StatusConflict, view)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, view)
	}
}

// handleResults implements GET /v1/results: the index of stored run
// specs. ?limit= and ?offset= page the (key-sorted) index so a large
// store never renders in one response; spec metadata comes from the
// store's in-memory index when resident, so a page costs at most `limit`
// backend reads. ?keys=1 lists raw keys only, decoding nothing — the
// listing an exporter walks — under the same paging and validation.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, err := queryInt(q.Get("limit"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Both listings answer the offset the store's page applied: the
	// requested one, clamped to the total.
	var page any
	var total int
	field := "results"
	if q.Get("keys") != "" {
		field = "keys"
		page, total, err = s.store.KeyPage(offset, limit)
	} else {
		page, total, err = s.store.IndexPage(offset, limit)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  total,
		"offset": min(offset, total),
		"limit":  limit,
		field:    page,
	})
}

// queryInt parses a non-negative integer query parameter.
func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid query value %q: want a non-negative integer", s)
	}
	return n, nil
}

// handleResultGet implements GET /v1/results/{key}: the raw encoded entry,
// exactly as stored: the export half of moving results between stores
// (PUT is the import half).
func (s *Server) handleResultGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok, err := s.store.GetRaw(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown result %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// maxRawEntry bounds a PUT /v1/results/{key} body.
const maxRawEntry = 64 << 20

// handleResultPut implements PUT /v1/results/{key}: store a raw entry.
// The body must decode to a self-consistent envelope whose spec re-derives
// the key, so an importer can never plant a result under a foreign
// address.
func (s *Server) handleResultPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRawEntry))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read entry: %w", err))
		return
	}
	if err := s.store.PutRaw(key, b); err != nil {
		// The client is only at fault for a bad envelope; a failing
		// backend (full disk, I/O error) is the server's problem
		// and must read as retryable.
		code := http.StatusInternalServerError
		if errors.Is(err, resultstore.ErrInvalidEntry) {
			code = http.StatusBadRequest
		}
		writeError(w, code, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleResultDelete implements DELETE /v1/results/{key}.
func (s *Server) handleResultDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Delete(r.PathValue("key")); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleBenchmarks implements GET /v1/benchmarks.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": lard.Benchmarks()})
}

// handleSchemes implements GET /v1/schemes: the replication policies with
// their tunables, figure columns and a ready-to-submit example each,
// straight from the facade's scheme table — a row added there is
// discoverable here with no server edit.
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	schemes := lard.RegisteredSchemes()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(schemes), "schemes": schemes})
}

// handleHealth implements GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statsView is the GET /stats body.
type statsView struct {
	Workers      int               `json:"workers"`
	QueueLen     int               `json:"queue_len"`
	QueueCap     int               `json:"queue_cap"`
	Busy         int               `json:"busy"`
	Jobs         map[string]int    `json:"jobs"`
	Campaigns    int               `json:"campaigns"`
	Engine       engineStatsView   `json:"engine"`
	Store        resultstore.Stats `json:"store"`
	StoreEntries int               `json:"store_entries"`
	StoreDir     string            `json:"store_dir,omitempty"`
	// UptimeSeconds is how long this server process has been serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Tracing reports whether run tracing (GET /v1/runs/{id}/trace and
	// /timeline) is on.
	Tracing bool `json:"tracing"`
}

// engineStatsView is the engine subtree of /stats: cancellations and the
// event bus.
type engineStatsView struct {
	Cancellations uint64            `json:"cancellations"`
	Events        engine.EventStats `json:"events"`
}

// handleStats implements GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	es := s.engine.Stats()
	view := statsView{
		Workers:   es.Workers,
		QueueLen:  es.QueueLen,
		QueueCap:  es.QueueCap,
		Busy:      es.Busy,
		Jobs:      es.Jobs,
		Campaigns: es.Campaigns,
		Engine: engineStatsView{
			Cancellations: es.RunsCancelled,
			Events:        es.Events,
		},
		Store:         s.store.Stats(),
		StoreEntries:  s.store.Len(),
		StoreDir:      s.store.Dir(),
		UptimeSeconds: s.obs.Uptime().Seconds(),
		Tracing:       s.obs.Tracer.Enabled(),
	}
	writeJSON(w, http.StatusOK, view)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
