package engine

import (
	"sync/atomic"
	"time"
)

// Stats is a point-in-time snapshot of the engine's progress counters.
type Stats struct {
	// Queued is the number of jobs waiting for a worker right now;
	// Running is the number currently executing.
	Queued  int64
	Running int64
	// Done and Failed count finished executions (cache hits excluded).
	Done   int64
	Failed int64
	// CacheHits counts submissions satisfied from the result cache;
	// DiskHits is the subset served from disk rather than memory.
	// CacheMisses counts submissions that had to execute.
	CacheHits   int64
	DiskHits    int64
	CacheMisses int64
	// Coalesced counts submissions single-flighted onto an identical
	// in-flight job instead of executing.
	Coalesced int64
	// DiskErrors counts cache files that could not be read or written
	// (corruption falls back to recompute).
	DiskErrors int64
	// Quarantined counts corrupt cache entries moved into the quarantine
	// directory (a subset of the DiskErrors story: detected, preserved,
	// recomputed).
	Quarantined int64
	// Retries is always 0: a failed job is never re-run. Panics counts
	// worker panics recovered into typed job errors.
	Retries int64
	Panics  int64
	// Wall is the cumulative execution wall-clock across finished jobs and
	// the trace recordings and plan builds that came before their runs.
	Wall time.Duration
	// The trace store: traces replayed, recorded and evicted, placements
	// refused for a trace over the budget, and bytes held.
	TracesReplayed int64
	TracesRecorded int64
	TracesEvicted  int64
	TracesRefused  int64
	TraceBytes     int64
	// Reverse plans (sampling.TracePlan) built beside the stored traces, the
	// runs that cut one instead of planning their windows, and the time the
	// builds took, which no job's Result.Wall holds.
	PlansBuilt int64
	PlansCut   int64
	PlanBuild  time.Duration
}

// counters is the engine's live atomic form of Stats.
type counters struct {
	queued, running, done, failed  atomic.Int64
	cacheHits, diskHits, cacheMiss atomic.Int64
	coalesced                      atomic.Int64
	panics                         atomic.Int64
	wallNanos                      atomic.Int64
}

func (c *counters) snapshot(diskErrs, quarantined int64) Stats {
	return Stats{
		Queued:      c.queued.Load(),
		Running:     c.running.Load(),
		Done:        c.done.Load(),
		Failed:      c.failed.Load(),
		CacheHits:   c.cacheHits.Load(),
		DiskHits:    c.diskHits.Load(),
		CacheMisses: c.cacheMiss.Load(),
		Coalesced:   c.coalesced.Load(),
		DiskErrors:  diskErrs,
		Quarantined: quarantined,
		Panics:      c.panics.Load(),
		Wall:        time.Duration(c.wallNanos.Load()),
	}
}
