package engine

import (
	"time"

	"rsr/internal/obs"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
)

// engineObs bundles the engine's registry instruments and trace sinks. A nil
// *engineObs — the default when Options carries neither a registry nor a
// tracer — reduces every hook to one branch.
//
// The progress counters in Stats stay the single source of truth: the scrape
// path re-expresses them through a registry collector (Counter.Set at collect
// time) instead of double-counting on the worker paths. Only the job latency
// histogram is fed directly, since a snapshot cannot reconstruct a
// distribution.
type engineObs struct {
	tr *obs.Tracer
	// instr is handed to every job's sampling.Options so per-cluster phase
	// metrics and spans flow from inside the runs.
	instr *sampling.Instruments
	// strat records how a strategy job selected and allocated its budget.
	strat *regimen.Instruments

	jobDur *obs.HistogramVec // observed in complete(), by terminal state
}

// newEngineObs registers the engine metric families on r (when non-nil) and
// wires the collector that mirrors stats into them at scrape time.
func newEngineObs(r *obs.Registry, tr *obs.Tracer, stats func() Stats) *engineObs {
	if r == nil && tr == nil {
		return nil
	}
	eo := &engineObs{tr: tr, instr: sampling.NewInstruments(r), strat: regimen.NewInstruments(r)}
	if r == nil {
		return eo
	}
	eo.jobDur = r.HistogramVec("rsr_engine_job_seconds",
		"Execution wall-clock of finished jobs by terminal state (cache hits excluded).",
		obs.DurationBuckets, "state")

	queued := r.Gauge("rsr_engine_jobs_queued", "Jobs waiting for a worker right now.")
	running := r.Gauge("rsr_engine_jobs_running", "Jobs executing right now.")
	jobs := r.CounterVec("rsr_engine_jobs_total",
		"Finished job executions by terminal state (cache hits excluded).", "state")
	cacheRes := r.CounterVec("rsr_engine_cache_total",
		"Cache consultations by result.", "result")
	coalesced := r.Counter("rsr_engine_coalesced_total",
		"Submissions single-flighted onto an identical in-flight job.")
	panics := r.Counter("rsr_engine_panics_total",
		"Worker panics recovered into typed job errors.")
	diskErrs := r.Counter("rsr_engine_disk_errors_total",
		"Cache files that could not be read or written.")
	quarantined := r.Counter("rsr_engine_quarantined_total",
		"Corrupt cache entries moved to the quarantine directory.")
	traces := r.CounterVec("rsr_engine_traces_total",
		"Functional traces replayed, recorded, evicted and refused (over the budget) by the trace store.", "event")
	traceBytes := r.Gauge("rsr_engine_trace_bytes", "Bytes of functional traces and their reverse plans the trace store holds.")
	plans := r.CounterVec("rsr_engine_plans_total",
		"Reverse plans built beside the stored traces, and runs that cut one instead of planning their windows.", "event")
	r.RegisterCollector(func() {
		s := stats()
		queued.Set(s.Queued)
		running.Set(s.Running)
		jobs.With("done").Set(uint64(s.Done))
		jobs.With("failed").Set(uint64(s.Failed))
		cacheRes.With("hit_memory").Set(uint64(s.CacheHits - s.DiskHits))
		cacheRes.With("hit_disk").Set(uint64(s.DiskHits))
		cacheRes.With("miss").Set(uint64(s.CacheMisses))
		coalesced.Set(uint64(s.Coalesced))
		panics.Set(uint64(s.Panics))
		diskErrs.Set(uint64(s.DiskErrors))
		quarantined.Set(uint64(s.Quarantined))
		traces.With("replayed").Set(uint64(s.TracesReplayed))
		traces.With("recorded").Set(uint64(s.TracesRecorded))
		traces.With("evicted").Set(uint64(s.TracesEvicted))
		traces.With("refused").Set(uint64(s.TracesRefused))
		traceBytes.Set(s.TraceBytes)
		plans.With("built").Set(uint64(s.PlansBuilt))
		plans.With("cut").Set(uint64(s.PlansCut))
	})
	return eo
}

// jobTID assigns a trace track to one task so its cache probe and run line
// up on a single row of the trace viewer.
func (eo *engineObs) jobTID() int64 {
	if eo == nil {
		return 0
	}
	return eo.tr.NextTID()
}

// span records one completed engine-side span for a task, stamped with the
// task's sweep tag (when any) so a fabric trace aggregator can filter it.
func (eo *engineObs) span(sweep, name string, tid int64, t0 time.Time, args ...obs.SpanArg) {
	if eo == nil || eo.tr == nil {
		return
	}
	eo.tr.Scoped(sweep).Record(name, "engine", tid, t0, time.Since(t0), args...)
}

// observeJob feeds the latency histogram for one finished execution.
func (eo *engineObs) observeJob(state string, wall time.Duration) {
	if eo == nil || eo.jobDur == nil {
		return
	}
	eo.jobDur.With(state).Observe(wall.Seconds())
}

// sinks returns what a job records into (nil when off): per-cluster phase
// and strategy-selection instruments, and the span sink scoped to its sweep.
func (eo *engineObs) sinks(sweep string) (*sampling.Instruments, *regimen.Instruments, *obs.Tracer) {
	if eo == nil {
		return nil, nil, nil
	}
	return eo.instr, eo.strat, eo.tr.Scoped(sweep)
}
