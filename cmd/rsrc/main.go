// Command rsrc is the sweep-fabric coordinator: it accepts simulation jobs,
// splits them across peer-mode rsrd workers, and keeps the results their
// completion reports carry in a content-addressed store (-casdir).
//
// Usage:
//
//	rsrc [-addr :9900] [-casdir DIR] [-journal DIR] [-queue N]
//	     [-heartbeat-timeout D] [-max-requeues N] [-drain-timeout D]
//
// API:
//
//	POST /v1/jobs            submit one engine job; 503 + Retry-After when
//	                         the queue is full (backpressure)
//	GET  /v1/jobs/{id}       job status, and the result once finished
//	GET  /v1/sweeps/{id}/trace merged fabric Chrome trace for the jobs
//	                         submitted under one X-Sweep-ID (id = that tag):
//	                         every participating node's span ring on its
//	                         own wall clock, one process lane per node
//	GET  /v1/status          live cluster status snapshot (feeds `rsr top`)
//	POST /v1/peers/heartbeat worker liveness + engine depth (200; 409 on skew)
//	POST /v1/peers/pull      lease one work item (204 when idle)
//	POST /v1/peers/complete  report an execution outcome, a success with
//	                         its result bytes
//	GET  /v1/version         build info + cluster protocol version
//	GET  /metrics            this coordinator's families; a worker's engine
//	                         depth arrives by heartbeat, its own families
//	                         stay on its own /metrics
//	GET  /healthz, /readyz   liveness / readiness
//
// The one request that dials a worker is the sweep trace: a worker's
// heartbeat carries its advertised address for that pull only.
//
// Scheduling is pull-based: one bounded FIFO queue that every free worker
// slot pulls from, one holder per running job, and heartbeat-driven requeue
// on node loss; every job is deterministic and content-addressed, so a
// sweep's results are byte-identical to a single-node run no matter how the
// fabric moves the work (see internal/cluster). Every accepted job stays
// pollable for the coordinator's lifetime.
//
// With -journal, every scheduling decision is fsync'd to an append-only
// write-ahead log before it takes effect, and a restarted coordinator
// replays the log to resume its sweeps: finished jobs are served from their
// CAS result blobs (pair -journal with -casdir, or replayed results are
// recomputed). Each journaled lease stays with its holder: the holder's
// first heartbeat to the restarted coordinator lists what it still runs,
// and the rest is requeued; a holder silent past -heartbeat-timeout plus
// the workers' 5s reconnect-probe cap is reaped. A crash or redeploy
// neither loses nor re-runs work.
//
// Workers heartbeat every second, and a worker whose pull loops are all busy
// refreshes its liveness only by heartbeat, so rsrc refuses (exit 2) a
// -heartbeat-timeout under three beats: it would reap live workers mid-job.
//
// Start workers with:
//
//	rsrd -addr :8746 -peer -coordinator http://host:9900
//
// and point clients at the fabric with:
//
//	rsr -cluster http://host:9900 -workloads twolf frontier
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rsr/internal/cas"
	"rsr/internal/cluster"
	"rsr/internal/obs"
)

// checkHeartbeatTimeout refuses a heartbeat timeout that workers beating at
// the default period cannot meet.
func checkHeartbeatTimeout(d time.Duration) error {
	if d < cluster.MinHeartbeatTimeout {
		return fmt.Errorf("-heartbeat-timeout %v is under the floor of %v (three of the workers' %v heartbeats): busy workers would be reaped mid-job",
			d, cluster.MinHeartbeatTimeout, cluster.DefaultHeartbeatEvery)
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":9900", "listen address")
	casDir := flag.String("casdir", "", "content-addressed result store directory (empty = none: after a restart, finished jobs are recomputed)")
	journalDir := flag.String("journal", "", "write-ahead journal directory; a restart replays it and resumes sweeps (empty = in-memory scheduling only)")
	queue := flag.Int("queue", 0, "queue bound per live worker (0 = 32); submissions past N x max(1, live workers) queued jobs are refused with 503")
	hbTimeout := flag.Duration("heartbeat-timeout", 5*time.Second, "reap workers silent this long and requeue their work")
	maxRequeues := flag.Int("max-requeues", 3, "per-item requeue budget across node loss and repeatedly refused results")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on finishing scheduled work after SIGTERM/SIGINT")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(log)
	if err := checkHeartbeatTimeout(*hbTimeout); err != nil {
		log.Error("bad -heartbeat-timeout", "err", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	var journal *cluster.Journal
	if *journalDir != "" {
		j, err := cluster.OpenJournal(*journalDir, log)
		if err != nil {
			log.Error("journal open failed", "dir", *journalDir, "err", err)
			os.Exit(1)
		}
		journal = j
	}
	var store *cas.Store
	if *casDir != "" {
		store = cas.NewStore(*casDir)
	}
	co := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Tracer:           obs.NewTracer(0),
		QueuePerWorker:   *queue,
		HeartbeatTimeout: *hbTimeout,
		MaxRequeues:      *maxRequeues,
		Journal:          journal,
		Store:            store,
		Metrics:          reg,
		Log:              log,
	})

	srv := cluster.NewServer(co, reg, log)
	hs := &http.Server{Addr: *addr, Handler: srv.Routes()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	log.Info("coordinating", "addr", *addr, "cas", *casDir, "journal", *journalDir,
		"queue_per_worker", *queue, "heartbeat_timeout", *hbTimeout,
		"protocol", cluster.ProtocolVersion)

	select {
	case err := <-serveErr:
		co.Close()
		log.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: refuse new submissions, give scheduled work a window
	// to finish (results land in the CAS, so clients polling for them still
	// succeed), then shut down.
	log.Info("signal received, draining", "timeout", *drainTimeout)
	co.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if co.Quiesce(dctx) {
		log.Info("all scheduled work finished")
	} else {
		log.Warn("drain timeout; unfinished items fail with coordinator closed")
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("shutdown failed", "err", err)
	}
	co.Close()
	log.Info("drained, exiting")
}
