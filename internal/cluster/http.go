package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"rsr/internal/engine"
	"rsr/internal/obs"
)

// Server maps a Coordinator onto the rsrc HTTP API:
//
//	POST /v1/jobs            submit one engine.Job; 202 {"id": hash},
//	                         503 + Retry-After on backpressure
//	GET  /v1/jobs/{id}       job status, and the result once finished
//	POST /v1/peers/heartbeat worker liveness + engine depth (200; 409 on skew)
//	POST /v1/peers/pull      lease one work item (204 when idle)
//	POST /v1/peers/complete  report an execution outcome, a success with
//	                         its result bytes
//	GET  /v1/sweeps/{id}/trace  merged fabric trace for the jobs submitted
//	                         under one X-Sweep-ID (id = that tag): Chrome
//	                         trace JSON, one process lane per node, each
//	                         node's own wall-clock timestamps
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
	hc  *http.Client // trace-aggregation fan-out
}

// NewServer wraps a coordinator for serving.
func NewServer(co *Coordinator, reg *obs.Registry, log *slog.Logger) *Server {
	if log == nil {
		log = slog.Default()
	}
	return &Server{co: co, reg: reg, log: log, ids: NewRequestIDs(),
		hc: &http.Client{Timeout: 5 * time.Second}}
}

// Routes returns the wrapped handler tree.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/sweeps/{tag}/trace", s.handleSweepTrace)
	mux.HandleFunc("/v1/peers/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/v1/peers/pull", s.handlePull)
	mux.HandleFunc("/v1/peers/complete", s.handleComplete)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/version", s.handleVersion)
	mux.HandleFunc("/metrics", MetricsHandler(s.reg, s.log))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.co.Draining() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return WithRequestLog(s.log, s.ids, mux)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Version())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.co.StatusSnapshot())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var job engine.Job
	if !DecodeJSON(w, r, MaxBodyBytes, &job, "job body") {
		return
	}
	id, err := s.co.Submit(job, engine.SweepFrom(r.Context()))
	switch {
	case errors.Is(err, ErrBusy), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		HTTPError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]string{"id": id, "label": job.Label()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	st, ok := s.co.Status(id)
	if !ok {
		HTTPError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// handleSweepTrace assembles the merged fabric trace for one sweep: the
// coordinator's own scheduling spans plus every participating worker's span
// ring (GET addr/v1/trace?sweep=tag), rendered as one Chrome trace with a
// process lane per node. Timestamps are each node's own wall clock, so lanes
// line up as far as the hosts' clocks agree (exactly, on one host). A worker
// that cannot be reached is skipped with a warning — a partial fabric trace
// beats none.
func (s *Server) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	tag := r.PathValue("tag")
	participants, ok := s.co.SweepTraceInfo(tag)
	if !ok {
		HTTPError(w, http.StatusNotFound, "unknown sweep %q", tag)
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
	if !DecodeJSON(w, r, MaxBodyBytes, &hb, "heartbeat") {
		return
	}
	switch err := s.co.Heartbeat(hb); {
	case errors.Is(err, ErrProtocol):
		HTTPError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrClosed):
		HTTPError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		HTTPError(w, http.StatusBadRequest, "%v", err)
	default:
		w.WriteHeader(http.StatusOK)
	}
}

func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	var req PullRequest
	if !DecodeJSON(w, r, MaxBodyBytes, &req, "pull body") {
		return
	}
	if req.Node == "" {
		HTTPError(w, http.StatusBadRequest, "bad pull body: no node")
		return
	}
	it := s.co.Pull(req.Node)
	if it == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	WriteJSON(w, http.StatusOK, it)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !DecodeJSON(w, r, maxCompleteBytes, &req, "complete body") {
		return
	}
	switch err := s.co.Complete(req); {
	case errors.Is(err, ErrUnknownJob):
		HTTPError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrBadBlob):
		HTTPError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrStoreWrite):
		HTTPError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		HTTPError(w, http.StatusBadRequest, "%v", err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// Request body bounds: MaxBodyBytes for every body the fabric decodes but a
// completion report (a job, a heartbeat, a pull; rsrd's job submissions
// too), and maxCompleteBytes for a report, whose result of up to
// maxBlobBytes is base64-encoded (4 bytes per 3).
const (
	MaxBodyBytes     = 1 << 20
	maxBlobBytes     = 1 << 30
	maxCompleteBytes = 4*((maxBlobBytes+2)/3) + MaxBodyBytes
)

// DecodeJSON decodes the request body, which must be one JSON value of at
// most limit bytes, into v. On failure it answers 413 (the body passed
// limit) or 400 (anything else) and reports false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any, what string) bool {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		HTTPError(w, http.StatusRequestEntityTooLarge, "%s over %d bytes", what, limit)
	case err != nil:
		HTTPError(w, http.StatusBadRequest, "bad %s: %v", what, err)
	default:
		return true
	}
	return false
}

// MetricsHandler serves reg in Prometheus text exposition format, or 404 when
// reg is nil: the /metrics route of rsrc and rsrd.
func MetricsHandler(reg *obs.Registry, log *slog.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			HTTPError(w, http.StatusNotFound, "metrics disabled")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			log.Error("metrics write failed", "err", err)
		}
	}
}

// WriteJSON writes v as the indented JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// HTTPError writes a code response whose JSON body is {"error": message}.
func HTTPError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
