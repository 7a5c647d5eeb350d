package cluster

import "rsr/internal/obs"

// coordObs is the coordinator's metric surface. Scheduling counters are
// incremented at decision time; gauges are mirrored at scrape time from the
// same StatusSnapshot that /v1/status serves (the RegisterCollector pattern,
// same as the engine's), so the scheduler state stays the single source of
// truth.
// With a nil registry every instrument is nil, which the obs package turns
// into no-ops.
type coordObs struct {
	submitted      *obs.Counter
	coalesced      *obs.Counter
	rejected       *obs.Counter
	requeues       *obs.Counter
	lateCompletes  *obs.Counter
	staleCompletes *obs.Counter
	nodesLost      *obs.Counter
	completed      *obs.CounterVec // label: state (done|failed)
	replayed       *obs.CounterVec // label: state (queued|running|done|failed|blob-missing)
	journalRecords *obs.CounterVec // label: kind (submit|tag|lease|complete|requeue|reap)
	journalFsync   *obs.Histogram
	sweepDur       *obs.Histogram

	workers     *obs.Gauge
	queueDepth  *obs.Gauge
	inflight    *obs.GaugeVec // label: node
	engQueued   *obs.GaugeVec // label: node
	engRunning  *obs.GaugeVec // label: node
	oldestLease *obs.GaugeVec // label: node
	sweepJobs   *obs.GaugeVec // label: state (pending|running|done|failed)
}

// sweepJobsTally counts live sweeps' members by state for the sweep gauges.
func (c *Coordinator) sweepJobsTally() (t stateTally) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sw := range c.sweeps {
		for _, id := range sw.ids {
			t.add(c.items[id])
		}
	}
	return t
}

func newCoordObs(reg *obs.Registry, c *Coordinator) *coordObs {
	o := &coordObs{}
	if reg == nil {
		return o
	}
	o.submitted = reg.Counter("rsr_cluster_jobs_submitted_total",
		"Jobs accepted by the coordinator.")
	o.coalesced = reg.Counter("rsr_cluster_jobs_coalesced_total",
		"Duplicate submissions coalesced onto an existing item.")
	o.rejected = reg.Counter("rsr_cluster_jobs_rejected_total",
		"Submissions refused with backpressure (queue at its bound).")
	o.requeues = reg.Counter("rsr_cluster_requeues_total",
		"Items requeued after node loss or a repeatedly refused result.")
	o.lateCompletes = reg.Counter("rsr_cluster_late_completes_total",
		"Completions that arrived after the item was already terminal (a requeue raced a slow completion; byte-identical results, dropped).")
	o.staleCompletes = reg.Counter("rsr_cluster_stale_completes_total",
		"Completion reports dropped because the node no longer held a lease on the item (reaped and requeued, or a stray report).")
	o.nodesLost = reg.Counter("rsr_cluster_nodes_lost_total",
		"Workers reaped after missing the heartbeat timeout.")
	o.completed = reg.CounterVec("rsr_cluster_items_total",
		"Items finished, by terminal state.", "state")
	o.replayed = reg.CounterVec("rsr_cluster_replay_items_total",
		"Items rebuilt from the write-ahead journal at startup, by replayed state (blob-missing counts done items whose result blob was gone and were requeued).", "state")
	o.journalRecords = reg.CounterVec("rsr_cluster_journal_records_total",
		"Write-ahead journal records appended, by kind.", "kind")
	o.journalFsync = reg.Histogram("rsr_cluster_journal_fsync_seconds",
		"Latency of one journal append (write + fsync).",
		[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1})
	o.workers = reg.Gauge("rsr_cluster_workers",
		"Live workers within their heartbeat window.")
	o.queueDepth = reg.Gauge("rsr_cluster_queue_depth",
		"Accepted items waiting for a lease.")
	o.inflight = reg.GaugeVec("rsr_cluster_inflight",
		"Leased items executing, per worker.", "node")
	o.engQueued = reg.GaugeVec("rsr_cluster_node_engine_queued",
		"Worker-reported local engine queue depth (heartbeat payload).", "node")
	o.engRunning = reg.GaugeVec("rsr_cluster_node_engine_running",
		"Worker-reported local engine running jobs (heartbeat payload).", "node")
	o.oldestLease = reg.GaugeVec("rsr_cluster_node_oldest_lease_age_ms",
		"Age in milliseconds of the node's slowest in-flight lease — the straggler signal.", "node")
	o.sweepDur = reg.Histogram("rsr_cluster_sweep_duration_seconds",
		"Wall-clock duration of a sweep, submission to last member terminal.",
		[]float64{.1, .25, .5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500})
	o.sweepJobs = reg.GaugeVec("rsr_cluster_sweep_jobs",
		"Members of live sweeps by state.", "state")
	reg.RegisterCollector(func() {
		st := c.StatusSnapshot()
		o.workers.Set(int64(len(st.Nodes)))
		o.queueDepth.Set(int64(st.Queued))
		for _, n := range st.Nodes {
			o.inflight.With(n.Node).Set(int64(n.Inflight))
			o.engQueued.With(n.Node).Set(n.EngQueued)
			o.engRunning.With(n.Node).Set(n.EngRunning)
			o.oldestLease.With(n.Node).Set(n.OldestLeaseAgeMS)
		}
		sj := c.sweepJobsTally()
		o.sweepJobs.With("pending").Set(int64(sj.queued))
		o.sweepJobs.With("running").Set(int64(sj.running))
		o.sweepJobs.With("done").Set(int64(sj.done))
		o.sweepJobs.With("failed").Set(int64(sj.failed))
	})
	return o
}

// zeroNode clears a reaped node's gauges so stale readings do not linger on
// /metrics between its death and the next scrape-time snapshot (which no
// longer includes it).
func (o *coordObs) zeroNode(name string) {
	o.inflight.With(name).Set(0)
	o.engQueued.With(name).Set(0)
	o.engRunning.With(name).Set(0)
	o.oldestLease.With(name).Set(0)
}
