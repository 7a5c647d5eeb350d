package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"rsr/internal/cas"
	"rsr/internal/engine"
	"rsr/internal/obs"
)

// Server maps a Coordinator onto the rsrc HTTP API:
//
//	POST /v1/jobs            submit one engine.Job; 202 {"id": hash},
//	                         503 + Retry-After on backpressure
//	GET  /v1/jobs/{id}       job status, and the result once finished
//	GET  /v1/sweeps/{id}     progress of the sweep formed by the jobs
//	                         submitted under one X-Sweep-ID (id = that tag)
//	POST /v1/peers/heartbeat worker liveness + engine depth (200; 409 on skew)
//	POST /v1/peers/pull      lease one work item (204 when idle)
//	POST /v1/peers/complete  report an execution outcome
//	/v1/cas/...              the shared content-addressed store
//	GET  /v1/sweeps/{id}/trace  merged fabric trace for one sweep (Chrome
//	                         trace JSON; one process lane per node, each
//	                         node's own wall-clock timestamps)
//	GET  /v1/status          live fabric snapshot (ClusterStatus), for rsr top
//	GET  /v1/version         build info + protocol version
//	GET  /metrics            Prometheus text exposition of the coordinator's
//	                         own families; workers report engine depth by
//	                         heartbeat, and no scrape dials a worker
//	GET  /healthz, /readyz   liveness / readiness (503 while draining)
type Server struct {
	co  *Coordinator
	reg *obs.Registry
	log *slog.Logger
	ids *RequestIDs
	cas *cas.Server
	hc  *http.Client // trace-aggregation fan-out
}

// NewServer wraps a coordinator for serving.
func NewServer(co *Coordinator, reg *obs.Registry, log *slog.Logger) *Server {
	if log == nil {
		log = slog.Default()
	}
	return &Server{co: co, reg: reg, log: log, ids: NewRequestIDs(),
		cas: cas.NewServer(co.Store(), "/v1/cas"),
		hc:  &http.Client{Timeout: 5 * time.Second}}
}

// Routes returns the wrapped handler tree.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/sweeps/", s.handleSweep)
	mux.HandleFunc("/v1/peers/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/v1/peers/pull", s.handlePull)
	mux.HandleFunc("/v1/peers/complete", s.handleComplete)
	mux.Handle("/v1/cas/", s.cas)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/version", s.handleVersion)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.co.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return WithRequestLog(s.log, s.ids, mux)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Version())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		httpError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Error("metrics write failed", "err", err)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.co.StatusSnapshot())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var job engine.Job
	if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
		httpError(w, http.StatusBadRequest, "bad job body: %v", err)
		return
	}
	id, err := s.co.Submit(job, engine.RequestIDFrom(r.Context()), engine.SweepFrom(r.Context()))
	switch {
	case errors.Is(err, ErrBusy), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "label": job.Label()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	st, ok := s.co.Status(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/sweeps/")
	if rest, ok := strings.CutSuffix(id, "/trace"); ok {
		s.handleSweepTrace(w, r, rest)
		return
	}
	st, ok := s.co.SweepStatus(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSweepTrace assembles the merged fabric trace for one sweep: the
// coordinator's own scheduling spans plus every participating worker's span
// ring (GET addr/v1/trace?sweep=tag), rendered as one Chrome trace with a
// process lane per node. Timestamps are each node's own wall clock, so lanes
// line up as far as the hosts' clocks agree (exactly, on one host). A worker
// that cannot be reached is skipped with a warning — a partial fabric trace
// beats none.
func (s *Server) handleSweepTrace(w http.ResponseWriter, r *http.Request, tag string) {
	participants, ok := s.co.SweepTraceInfo(tag)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep %q", tag)
		return
	}
	dumps := []obs.TraceDump{{
		Node:  "coordinator",
		Spans: s.co.Tracer().Dump(tag),
	}}
	for _, name := range sortedKeys(participants) {
		addr := participants[name]
		if addr == "" {
			s.log.Warn("trace pull skipped: node never advertised an address", "node", name)
			continue
		}
		var spans []obs.SpanDump
		err := getJSON(r.Context(), s.hc, addr+"/v1/trace?sweep="+url.QueryEscape(tag), 64<<20, &spans)
		if err != nil {
			s.log.Warn("trace pull failed", "node", name, "addr", addr, "err", err)
			continue
		}
		dumps = append(dumps, obs.TraceDump{Node: name, Spans: spans})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteMergedChromeTrace(w, dumps); err != nil {
		s.log.Error("merged trace write failed", "sweep", tag, "err", err)
	}
}

// sortedKeys returns a map's keys in order, wherever iteration order would
// otherwise leak out: trace lane layout, snapshots, requeue order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		httpError(w, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	switch err := s.co.Heartbeat(hb); {
	case errors.Is(err, ErrProtocol):
		httpError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		w.WriteHeader(http.StatusOK)
	}
}

func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	var req PullRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Node == "" {
		httpError(w, http.StatusBadRequest, "bad pull body")
		return
	}
	it := s.co.Pull(req.Node)
	if it == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, it)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad complete body: %v", err)
		return
	}
	switch err := s.co.Complete(req); {
	case errors.Is(err, ErrUnknownJob):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrBadBlob):
		httpError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
