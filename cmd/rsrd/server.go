package main

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsr/internal/cluster"
	"rsr/internal/engine"
	"rsr/internal/experiments"
	"rsr/internal/obs"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
)

// server maps the engine onto the /v1 HTTP API. Tickets are retained by job
// ID (the content hash) so clients can poll for results.
type server struct {
	eng *engine.Engine
	reg *obs.Registry // scraped by GET /metrics; nil disables the endpoint
	tr  *obs.Tracer   // span ring served at GET /v1/trace; nil disables it
	log *slog.Logger
	ids *cluster.RequestIDs

	// retryAfter is the drain-refusal Retry-After header value, derived
	// from the configured drain window: the drain bounds how long this
	// process may still be finishing work, so it is the honest earliest
	// time a retried submission could land on a replacement.
	retryAfter string

	// draining flips when shutdown begins: readiness goes 503, submissions
	// are refused with 503 + Retry-After, but status polls keep working so
	// clients can collect in-flight results.
	draining atomic.Bool

	// peer, set in peer mode, folds the fabric relationship into readiness:
	// a worker whose coordinator is unreachable reports not-ready, so fleet
	// health rollups show the partition instead of a green worker doing
	// nothing.
	peer atomic.Pointer[cluster.Peer]

	mu      sync.Mutex
	tickets map[string]*engine.Ticket
}

// setPeer attaches the fabric peer whose connectivity readiness should
// reflect.
func (s *server) setPeer(p *cluster.Peer) { s.peer.Store(p) }

func newServer(eng *engine.Engine, reg *obs.Registry, tr *obs.Tracer, log *slog.Logger, drainWindow time.Duration) *server {
	if log == nil {
		log = slog.Default()
	}
	return &server{eng: eng, reg: reg, tr: tr, log: log, ids: cluster.NewRequestIDs(),
		retryAfter: retryAfterValue(drainWindow),
		tickets:    make(map[string]*engine.Ticket)}
}

// retryAfterValue renders a drain window as a Retry-After header: whole
// seconds rounded up, at least 1 (sub-second windows must not advertise an
// instant retry), and capped at five minutes so a generous drain budget
// does not park well-behaved clients indefinitely.
func retryAfterValue(drainWindow time.Duration) string {
	secs := int64((drainWindow + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return strconv.FormatInt(secs, 10)
}

// beginDrain stops accepting new jobs; already-submitted work continues.
func (s *server) beginDrain() { s.draining.Store(true) }

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/stats", s.handleStats)
	// Build info + protocol version, so operators and peers can spot
	// mixed-version fleets before they corrupt a sweep.
	mux.HandleFunc("/v1/version", s.handleVersion)
	// Liveness is unconditional while the process runs; readiness flips
	// during drain so load balancers stop routing submissions here.
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	// Prometheus text exposition of the engine's metric registry.
	mux.HandleFunc("/metrics", cluster.MetricsHandler(s.reg, s.log))
	// The coordinator fetches this node's span ring when aggregating a sweep
	// trace: the one artifact joined across nodes.
	mux.HandleFunc("/v1/trace", s.handleTrace)
	// Live profiling of a running daemon (the default-mux registration in
	// net/http/pprof does not apply to a private mux, so mount explicitly).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Every route shares the request-ID + structured-log wrapper: one line
	// per request, the ID echoed as X-Request-ID.
	return cluster.WithRequestLog(s.log, s.ids, mux)
}

// handleVersion serves build info and the cluster protocol version.
func (s *server) handleVersion(w http.ResponseWriter, r *http.Request) {
	cluster.WriteJSON(w, http.StatusOK, cluster.Version())
}

// handleTrace serves the node's span ring as JSON ([]obs.SpanDump), filtered
// to one sweep tag when ?sweep= is given. Timestamps are this node's own
// clock in unix nanoseconds; the coordinator-side aggregator merges them as
// they are.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tr == nil {
		cluster.HTTPError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	cluster.WriteJSON(w, http.StatusOK, s.tr.Dump(r.URL.Query().Get("sweep")))
}

// jobRequest is the POST /v1/jobs body. Unset fields take the reproduction
// defaults: the paper's machine, the workload's Table-1 regimen, the
// reference 20M-instruction length, and seed 2007.
type jobRequest struct {
	Kind     string            `json:"kind,omitempty"` // "sampled" (default) or "full"
	Workload string            `json:"workload"`
	Method   string            `json:"method,omitempty"` // warm-up label, e.g. "R$BP (20%)"
	Total    uint64            `json:"total,omitempty"`
	Seed     *int64            `json:"seed,omitempty"`
	Regimen  *sampling.Regimen `json:"regimen,omitempty"`
	// Strategy names the sampling strategy that spends the regimen (what
	// `rsr -regimen` names; see `rsr regimens`). Empty or "stratified-uniform"
	// is the paper's design.
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMS bounds the job's execution in milliseconds (0 = engine default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// toJob resolves the request against the reproduction defaults.
func (r jobRequest) toJob() (engine.Job, error) {
	def := experiments.DefaultConfig()
	j := engine.Job{
		Kind:     engine.JobSampled,
		Workload: r.Workload,
		Machine:  sampling.DefaultMachine(),
		Total:    def.Total(),
		Seed:     def.Seed,
		Timeout:  time.Duration(r.TimeoutMS) * time.Millisecond,
		Strategy: r.Strategy,
	}
	if r.Kind != "" {
		j.Kind = engine.JobKind(r.Kind)
	}
	if r.Total > 0 {
		j.Total = r.Total
	}
	if r.Seed != nil {
		j.Seed = *r.Seed
	}
	if j.Kind == engine.JobSampled {
		if r.Regimen != nil {
			j.Regimen = *r.Regimen
		} else {
			// The workload name is user input: an unknown name must fail
			// here (400) rather than silently simulate under the default
			// design.
			reg, err := experiments.RegimenForStrict(r.Workload)
			if err != nil {
				return engine.Job{}, err
			}
			j.Regimen = reg
		}
		spec, err := warmup.SpecByLabel(r.Method)
		if err != nil {
			if r.Method != "" {
				return engine.Job{}, err
			}
			spec = warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}
		}
		j.Warmup = spec
	}
	return j, nil
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cluster.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		cluster.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if p := s.peer.Load(); p != nil && !p.Connected() {
		cluster.WriteJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "coordinator unreachable"})
		return
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		cluster.HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfter)
		cluster.HTTPError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	var req jobRequest
	if !cluster.DecodeJSON(w, r, cluster.MaxBodyBytes, &req, "job body") {
		return
	}
	job, err := req.toJob()
	if err != nil {
		cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The daemon owns the run lifetime, not the request: jobs keep running
	// after the submitting connection goes away. The request's sweep tag
	// rides along so the job's spans carry it.
	tk, err := s.eng.Submit(engine.WithSweep(context.Background(), engine.SweepFrom(r.Context())), job)
	if err != nil {
		cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	s.tickets[tk.Hash()] = tk
	s.mu.Unlock()
	cluster.WriteJSON(w, http.StatusAccepted, map[string]any{
		"id":    tk.Hash(),
		"label": job.Label(),
	})
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	tk, ok := s.tickets[id]
	s.mu.Unlock()
	if !ok {
		cluster.HTTPError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	st := cluster.JobStatus{ID: id, Status: "pending"}
	if res, err, done := tk.Result(); done {
		if err != nil {
			st.Status, st.Error = "failed", err.Error()
		} else {
			st.Status, st.Result = "done", res
		}
	}
	cluster.WriteJSON(w, http.StatusOK, st)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	cluster.WriteJSON(w, http.StatusOK, s.eng.Stats())
}
