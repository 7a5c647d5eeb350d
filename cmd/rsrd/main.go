// Command rsrd is a minimal HTTP daemon serving simulation jobs over the
// concurrent engine: the seed of running the reproduction as a service.
//
// Usage:
//
//	rsrd [-addr :8745] [-parallel N] [-cachedir DIR] [-job-timeout D]
//	     [-drain-timeout D]
//	     [-peer -coordinator URL [-node NAME] [-advertise URL]]
//
// API:
//
//	POST /v1/jobs      submit a job; returns {"id": <job hash>, ...}
//	GET  /v1/jobs/{id} job status, and the result once finished
//	GET  /v1/stats     engine scheduler/cache counters
//	GET  /v1/trace     this node's span ring as JSON (?sweep= filters by tag)
//	GET  /v1/version   build info + cluster protocol version
//	GET  /metrics      Prometheus text exposition of this process's registry
//	GET  /healthz      liveness (200 while the process runs)
//	GET  /readyz       readiness (503 once draining)
//
// With -peer, the daemon additionally joins the sweep fabric of the rsrc
// coordinator at -coordinator: it heartbeats its engine depth every second,
// pulls work with one loop per engine worker (-parallel), runs it on the
// local engine, and sends each result to the coordinator in its completion
// report. The local HTTP API stays fully usable in peer mode. The -advertise
// address is used for the sweep trace only: the coordinator dials it to pull
// /v1/trace.
//
// Every request is logged as one structured log/slog line (method, path,
// status, duration, request ID); the ID is echoed as X-Request-ID, and a
// client-supplied X-Request-ID is honoured. A job's X-Sweep-ID is stamped on
// its spans.
//
// A submission names a workload and either a warm-up method label from the
// paper's matrix or kind "full" for a true-IPC baseline:
//
//	{"workload": "twolf", "method": "R$BP (20%)", "total": 2000000, "seed": 1}
//	{"workload": "gcc", "kind": "full", "total": 2000000}
//	{"workload": "mcf", "strategy": "two-phase-stratified", "total": 2000000}
//
// Machine and regimen default to the paper's machine and the workload's
// Table-1 regimen; total defaults to the reference 20M instructions;
// "strategy" names the sampling strategy that spends the regimen (`rsr
// regimens` lists them; empty or "stratified-uniform" is the paper's design).
//
// On SIGTERM/SIGINT the daemon drains gracefully: readiness flips, new
// submissions get 503 + Retry-After, in-flight jobs run to completion
// (their results checkpointed in the disk cache) up to -drain-timeout, and
// only then does the process exit. A second signal kills immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rsr/internal/cluster"
	"rsr/internal/engine"
	"rsr/internal/obs"
)

// advertiseURL resolves the base URL this worker advertises to the
// coordinator for sweep-trace pulls: the -advertise flag verbatim when
// set, otherwise derived from -addr (a bare ":port" becomes loopback, which
// is right for the single-host topologies of tests and smoke scripts;
// multi-host fleets should set -advertise explicitly).
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

func main() {
	addr := flag.String("addr", ":8745", "listen address")
	parallel := flag.Int("parallel", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("cachedir", "", "content-addressed result cache directory (empty = memory-only)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job execution deadline (0 = none); expiry fails the job with ErrDeadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on finishing in-flight jobs after SIGTERM/SIGINT")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	peerMode := flag.Bool("peer", false, "join a sweep-fabric coordinator as a worker (requires -coordinator)")
	coordinator := flag.String("coordinator", "", "coordinator base URL for -peer, e.g. http://host:9900")
	nodeName := flag.String("node", "", "cluster-unique worker name for -peer (default hostname-pid)")
	advertise := flag.String("advertise", "", "externally reachable base URL advertised to the coordinator, used only to pull this node's sweep-trace spans (default derived from -addr)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(log)

	if *peerMode && *coordinator == "" {
		slog.Error("-peer requires -coordinator")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	// The span ring is always on: it is a fixed-size in-memory buffer whose
	// recording cost is only paid per span, and serving it at /v1/trace is
	// what lets a coordinator assemble fabric-wide sweep traces on demand.
	tracer := obs.NewTracer(0)
	engOpts := engine.Options{
		Workers:        *parallel,
		CacheDir:       *cacheDir,
		DefaultTimeout: *jobTimeout,
		Metrics:        reg,
		Tracer:         tracer,
	}
	eng := engine.New(engOpts)

	srv := newServer(eng, reg, tracer, log, *drainTimeout)
	hs := &http.Server{Addr: *addr, Handler: srv.routes()}

	// First signal begins the drain; stop() below restores default handling
	// so a second signal kills the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	log.Info("listening", "addr", *addr, "workers", eng.Workers(),
		"cache", *cacheDir, "drain", *drainTimeout)

	var peer *cluster.Peer
	if *peerMode {
		p, err := cluster.NewPeer(cluster.PeerOptions{
			Node:        *nodeName,
			Coordinator: *coordinator,
			Advertise:   advertiseURL(*advertise, *addr),
			Engine:      eng,
			Metrics:     reg,
			Log:         log,
		})
		if err == nil {
			err = p.Start()
		}
		if err != nil {
			eng.Close()
			log.Error("peer mode failed", "err", err)
			os.Exit(1)
		}
		peer = p
		srv.setPeer(p)
	}

	select {
	case err := <-serveErr:
		if peer != nil {
			peer.Close()
		}
		eng.Close()
		log.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: refuse new work, let in-flight jobs finish (their
	// results land in the disk cache, so a restart resumes from checkpoints
	// instead of recomputing), then stop the listener and the workers.
	log.Info("signal received, draining", "timeout", *drainTimeout)
	srv.beginDrain()
	if peer != nil {
		// Leave the fabric first: heartbeats stop, so the coordinator
		// requeues anything this node had leased but not finished.
		peer.Close()
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if eng.Quiesce(dctx) {
		log.Info("all in-flight jobs finished")
	} else {
		s := eng.Stats()
		log.Warn("drain timeout; completed work is checkpointed",
			"queued", s.Queued, "running", s.Running)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("shutdown failed", "err", err)
	}
	eng.Close()
	log.Info("drained, exiting")
}
