package sampling

import (
	"time"

	"rsr/internal/bpred"
	"rsr/internal/mem"
	"rsr/internal/obs"
	"rsr/internal/warmup"
)

// Phase span names recorded per cluster (and the engine-facing categories
// under which rsrd/rsr expose them). They mirror the paper's time budget:
// cold functional skipping, the reverse scan over the skip log (applying its
// plan included), and the measured hot cluster.
const (
	PhaseColdSkip    = "cold-skip"
	PhaseReverseScan = "reverse-scan"
	PhaseHotSim      = "hot-sim"
	PhaseFullSim     = "full-sim"
	// PhaseCheckpoint is a sharded run's pre-pass capturing an architectural
	// checkpoint (registers + dirty-page delta) at a range boundary.
	PhaseCheckpoint = "checkpoint-capture"
	// PhaseConsumerWait is a sharded run's walker blocked on a producer's
	// ring — the starvation signal.
	PhaseConsumerWait = "consumer-wait"
)

// Pipeline stage labels for rsr_sampling_pipeline_nanos_total: where a
// sharded run's wall-clock goes, split between the producers' work and the
// strictly serial walker. consumer-adopt + consumer-sim is the Amdahl serial
// fraction; consumer-wait is starvation (producers too slow or too few).
const (
	StageProducerCold = "producer-cold" // producers' cold loops, waits for a free slot included
	// StageProducerSeal is recorded by nothing: every method seals at
	// EndSkip, on the walker (consumer-adopt). The benchmark reads the label.
	StageProducerSeal = "producer-seal"
	StageConsumerWait = "consumer-wait"  // the walker blocked on a ring
	StageConsumerWarm = "consumer-adopt" // the walker's cold phase and EndSkip, waits excluded
	StageConsumerSim  = "consumer-sim"   // the walker's hot phase, waits excluded
)

// Instruments is the sampling layer's bundle of registry instruments.
// Construct one per registry with NewInstruments and share it across any
// number of concurrent runs; a nil *Instruments disables metric recording
// (and costs one branch per phase, never per instruction).
type Instruments struct {
	phaseInstr *obs.CounterVec   // instructions executed, by coarse phase
	phaseDur   *obs.HistogramVec // per-cluster phase latencies, by span name
	clusters   *obs.Counter
	runs       *obs.CounterVec // finished runs by kind

	// Warm-up work by method label: the paper's logged-vs-applied story.
	logged  *obs.CounterVec
	scanned *obs.CounterVec
	applied *obs.CounterVec
	warmOps *obs.CounterVec

	cacheEvents *obs.CounterVec // cache hierarchy event counts by level/event
	predUpdates *obs.CounterVec // predictor state mutations by structure

	// Sharded-run instrumentation: the walker's starvation and the
	// producer-vs-walker wall-clock split (the measured Amdahl story).
	consumerWait *obs.Histogram
	pipeline     *obs.CounterVec
}

// NewInstruments registers (idempotently) the sampling metric families on r
// and returns the bundle. A nil registry yields nil, which disables
// recording everywhere it is passed.
func NewInstruments(r *obs.Registry) *Instruments {
	if r == nil {
		return nil
	}
	return &Instruments{
		phaseInstr: r.CounterVec("rsr_sampling_phase_instructions_total",
			"Instructions executed per sampling phase (cold = functionally skipped, hot = measured cluster).",
			"phase"),
		phaseDur: r.HistogramVec("rsr_sampling_phase_seconds",
			"Per-cluster phase latency by span name.",
			obs.DurationBuckets, "phase"),
		clusters: r.Counter("rsr_sampling_clusters_total",
			"Clusters simulated across all sampled runs."),
		runs: r.CounterVec("rsr_sampling_runs_total",
			"Finished simulation runs by kind.", "kind"),
		logged: r.CounterVec("rsr_warmup_logged_records_total",
			"Skip-log records captured during cold phases, by warm-up method.", "method"),
		scanned: r.CounterVec("rsr_warmup_recon_scanned_total",
			"Skip-log records consumed by reverse scans, by warm-up method.", "method"),
		applied: r.CounterVec("rsr_warmup_recon_applied_total",
			"State mutations applied by reconstruction, by warm-up method (logged minus applied is the paper's ineffectual-skipped count).", "method"),
		warmOps: r.CounterVec("rsr_warmup_warm_ops_total",
			"Functional warming applications to caches or predictor, by warm-up method.", "method"),
		cacheEvents: r.CounterVec("rsr_cache_events_total",
			"Cache hierarchy events accumulated over finished runs.", "level", "event"),
		predUpdates: r.CounterVec("rsr_bpred_updates_total",
			"Branch predictor state mutations accumulated over finished runs.", "structure"),
		consumerWait: r.Histogram("rsr_sampling_consumer_wait_seconds",
			"Time a sharded run's walker spent blocked on a producer, per blocking receive (idle = starved by producers).",
			obs.DurationBuckets),
		pipeline: r.CounterVec("rsr_sampling_pipeline_nanos_total",
			"Sharded-run wall-clock by pipeline stage: producer-* is the producers' (overlapped) work, consumer-* is the walker's serial fraction plus starvation.",
			"stage"),
	}
}

// publishMachine folds a finished run's cache and predictor event counters
// into the registry. Each run owns a fresh hierarchy and predictor, so the
// final counters are exactly the run's contribution.
func (in *Instruments) publishMachine(h *mem.Hierarchy, u *bpred.Unit) {
	if in == nil {
		return
	}
	h.EachCache(func(level string, s mem.Stats) {
		in.cacheEvents.With(level, "accesses").Add(s.Accesses)
		in.cacheEvents.With(level, "hits").Add(s.Hits)
		in.cacheEvents.With(level, "misses").Add(s.Misses)
		in.cacheEvents.With(level, "evictions").Add(s.Evictions)
		in.cacheEvents.With(level, "writebacks").Add(s.Writebacks)
	})
	c := u.UpdateCounts()
	in.predUpdates.With("dir").Add(c.Dir)
	in.predUpdates.With("btb").Add(c.BTB)
	in.predUpdates.With("ras").Add(c.RAS)
}

// runObs is the per-run observer: instrument series resolved once per run
// (label lookups take a lock, phase recording must not), the run's trace
// track, and the last warm-up Work snapshot for per-cluster deltas. A nil
// *runObs — the default — reduces every hook to a single branch, keeping
// uninstrumented runs byte-identical and allocation-free.
type runObs struct {
	tr  *obs.Tracer
	in  *Instruments
	tid int64
	cat string // trace category: the method label

	coldInstr, hotInstr               *obs.Counter
	coldDur, reconDur, hotDur         *obs.Histogram
	logged, scanned, applied, warmOps *obs.Counter

	// Sharded-run accounting, only in a run with more than one producer
	// (parallel): otherwise the stage series stay absent, not zero. waited is
	// how long the walker has blocked in the current phase.
	parallel                               bool
	waitDur                                *obs.Histogram
	pipeCold, pipeWait, pipeAdopt, pipeSim *obs.Counter
	waited                                 time.Duration

	prevWork warmup.Work
}

// newRunObs builds the observer for one run, or nil when both sinks are
// off. cat names the run on its trace spans; method is the warm-up label
// ("" for full runs, which perform no warm-up work); parallel says the run
// has more than one producer.
func newRunObs(in *Instruments, tr *obs.Tracer, cat, method string, parallel bool) *runObs {
	if in == nil && tr == nil {
		return nil
	}
	ro := &runObs{tr: tr, in: in, cat: cat, parallel: parallel}
	if tr != nil {
		ro.tid = tr.NextTID()
	}
	if in != nil {
		ro.coldInstr = in.phaseInstr.With("cold")
		ro.hotInstr = in.phaseInstr.With("hot")
		ro.coldDur = in.phaseDur.With(PhaseColdSkip)
		ro.reconDur = in.phaseDur.With(PhaseReverseScan)
		ro.hotDur = in.phaseDur.With(PhaseHotSim)
		if method != "" {
			ro.logged = in.logged.With(method)
			ro.scanned = in.scanned.With(method)
			ro.applied = in.applied.With(method)
			ro.warmOps = in.warmOps.With(method)
		}
		if parallel {
			ro.waitDur = in.consumerWait
			ro.pipeCold = in.pipeline.With(StageProducerCold)
			ro.pipeWait = in.pipeline.With(StageConsumerWait)
			ro.pipeAdopt = in.pipeline.With(StageConsumerWarm)
			ro.pipeSim = in.pipeline.With(StageConsumerSim)
		}
	}
	return ro
}

// begin marks a phase start. The zero time on the disabled path is never
// read: every consumer is also nil-guarded.
func (ro *runObs) begin() time.Time {
	if ro == nil {
		return time.Time{}
	}
	return time.Now()
}

// workDelta folds the warm-up work performed since the previous snapshot
// into the per-method counters and returns the delta for span annotation.
func (ro *runObs) workDelta(w warmup.Work) warmup.Work {
	d := w.Sub(ro.prevWork)
	ro.prevWork = w
	ro.logged.Add(d.LoggedRecords)
	ro.scanned.Add(d.ReconScanned)
	ro.applied.Add(d.ReconApplied)
	ro.warmOps.Add(d.WarmOps)
	return d
}

// coldDone records the cold-skip phase of one cluster.
func (ro *runObs) coldDone(t0 time.Time, cluster int, instrs uint64, w warmup.Work) {
	if ro == nil {
		return
	}
	dur := time.Since(t0)
	ro.coldDur.Observe(dur.Seconds())
	ro.stage(ro.pipeAdopt, dur)
	ro.coldInstr.Add(instrs)
	d := ro.workDelta(w)
	ro.span(PhaseColdSkip, t0, dur,
		obs.SpanArg{Key: "cluster", Val: int64(cluster)},
		obs.SpanArg{Key: "instructions", Val: int64(instrs)},
		obs.SpanArg{Key: "logged", Val: int64(d.LoggedRecords)},
		obs.SpanArg{Key: "warm_ops", Val: int64(d.WarmOps)})
}

// blocked records a blocking receive of a sharded run's walker, from t0: the
// phase it fell in leaves it out of its own stage.
func (ro *runObs) blocked(t0 time.Time) {
	if ro == nil || !ro.parallel {
		return
	}
	dur := time.Since(t0)
	ro.waited += dur
	ro.waitDur.Observe(dur.Seconds())
	ro.pipeWait.Add(uint64(dur.Nanoseconds()))
	ro.span(PhaseConsumerWait, t0, dur)
}

// stage adds a walker phase of dur, less the time it blocked, to c.
func (ro *runObs) stage(c *obs.Counter, dur time.Duration) {
	c.Add(uint64((dur - ro.waited).Nanoseconds()))
	ro.waited = 0
}

// producerCold records one region's cold phase on a sharded run's producer,
// from t0, on the producer's track st. Producers call it concurrently; it
// reads only what newRunObs set.
func (ro *runObs) producerCold(st *shardTrace, t0 time.Time, cluster, shard int, instrs uint64) {
	dur := time.Since(t0)
	ro.pipeCold.Add(uint64(dur.Nanoseconds()))
	st.span(PhaseColdSkip, t0, dur,
		obs.SpanArg{Key: "cluster", Val: int64(cluster)},
		obs.SpanArg{Key: "shard", Val: int64(shard)},
		obs.SpanArg{Key: "instructions", Val: int64(instrs)})
}

// reconDone records the reconstruction phase (Method.EndSkip) of one
// cluster: for reverse methods this is the backward scan plus state
// application; for other methods it is empty and near-zero.
func (ro *runObs) reconDone(t0 time.Time, cluster int, w warmup.Work) {
	if ro == nil {
		return
	}
	dur := time.Since(t0)
	ro.reconDur.Observe(dur.Seconds())
	ro.stage(ro.pipeAdopt, dur)
	d := ro.workDelta(w)
	ro.span(PhaseReverseScan, t0, dur,
		obs.SpanArg{Key: "cluster", Val: int64(cluster)},
		obs.SpanArg{Key: "scanned", Val: int64(d.ReconScanned)},
		obs.SpanArg{Key: "applied", Val: int64(d.ReconApplied)})
}

// hotDone records the measured hot cluster, folding in any warm-up work
// performed on demand during detailed simulation (the reverse predictor
// scans its log lazily from prediction sites).
func (ro *runObs) hotDone(t0 time.Time, cluster int, instrs uint64, w warmup.Work) {
	if ro == nil {
		return
	}
	dur := time.Since(t0)
	ro.hotDur.Observe(dur.Seconds())
	ro.stage(ro.pipeSim, dur)
	ro.hotInstr.Add(instrs)
	if ro.in != nil {
		ro.in.clusters.Inc()
	}
	d := ro.workDelta(w)
	ro.span(PhaseHotSim, t0, dur,
		obs.SpanArg{Key: "cluster", Val: int64(cluster)},
		obs.SpanArg{Key: "instructions", Val: int64(instrs)},
		obs.SpanArg{Key: "scanned", Val: int64(d.ReconScanned)})
}

// fullDone records a complete detailed simulation as one hot span.
func (ro *runObs) fullDone(t0 time.Time, instrs uint64) {
	if ro == nil {
		return
	}
	dur := time.Since(t0)
	ro.hotInstr.Add(instrs)
	if ro.in != nil {
		ro.in.phaseDur.With(PhaseFullSim).Observe(dur.Seconds())
	}
	ro.span(PhaseFullSim, t0, dur,
		obs.SpanArg{Key: "instructions", Val: int64(instrs)})
}

// runDone records a finished run: machine event counters and the run count.
func (ro *runObs) runDone(kind string, h *mem.Hierarchy, u *bpred.Unit) {
	if ro == nil {
		return
	}
	if ro.in != nil {
		ro.in.runs.With(kind).Inc()
		ro.in.publishMachine(h, u)
	}
}

// span commits one completed phase span. The tracer API stamps spans at
// Begin time, so this reconstructs the record from the measured start —
// both sinks share a single time.Since per phase.
func (ro *runObs) span(name string, t0 time.Time, dur time.Duration, args ...obs.SpanArg) {
	if ro.tr == nil {
		return
	}
	ro.tr.Record(name, ro.cat, ro.tid, t0, dur, args...)
}
