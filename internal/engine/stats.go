package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a point-in-time snapshot of the engine's progress counters.
type Stats struct {
	// Queued is the number of jobs waiting for a worker right now;
	// Running is the number currently executing.
	Queued  int64
	Running int64
	// ShardsInUse sums Job.ShardSlots over currently executing jobs: how
	// many shard goroutines the running work occupies. Peers report it in
	// heartbeats so the coordinator can export per-node shard utilization.
	ShardsInUse int64
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
	// EventsDropped counts progress events discarded because a subscriber's
	// buffer was full. Delivery is best-effort by design; a nonzero value
	// means some consumer is falling behind, not that work was lost.
	EventsDropped int64
	// Wall is the cumulative execution wall-clock across finished jobs.
	Wall time.Duration
}

// counters is the engine's live atomic form of Stats.
type counters struct {
	queued, running, done, failed  atomic.Int64
	shardsInUse                    atomic.Int64
	cacheHits, diskHits, cacheMiss atomic.Int64
	coalesced                      atomic.Int64
	panics                         atomic.Int64
	wallNanos                      atomic.Int64
}

func (c *counters) snapshot(diskErrs, quarantined, eventsDropped int64) Stats {
	return Stats{
		Queued:        c.queued.Load(),
		Running:       c.running.Load(),
		ShardsInUse:   c.shardsInUse.Load(),
		Done:          c.done.Load(),
		Failed:        c.failed.Load(),
		CacheHits:     c.cacheHits.Load(),
		DiskHits:      c.diskHits.Load(),
		CacheMisses:   c.cacheMiss.Load(),
		Coalesced:     c.coalesced.Load(),
		DiskErrors:    diskErrs,
		Quarantined:   quarantined,
		Panics:        c.panics.Load(),
		EventsDropped: eventsDropped,
		Wall:          time.Duration(c.wallNanos.Load()),
	}
}

// JobState is the lifecycle position of a job in an Event.
type JobState string

// Job lifecycle states, in order of occurrence. A job reaches exactly one
// of StateCached, StateDone, or StateFailed.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateCached  JobState = "cached"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Event is one progress notification on a subscription stream.
type Event struct {
	JobHash string
	Label   string
	State   JobState
	// Err is the failure message for StateFailed.
	Err string `json:",omitempty"`
	// Wall is the execution wall-clock, set on StateDone/StateFailed.
	Wall time.Duration `json:",omitempty"`
	// RequestID is the correlation ID of the submission that started the
	// job (engine.WithRequestID), empty when the submitter supplied none.
	// Coalesced duplicates share the first submitter's ID.
	RequestID string `json:",omitempty"`
}

// broadcaster fans events out to subscribers. Delivery is best-effort:
// events are dropped for subscribers whose buffer is full, so a slow
// consumer can never stall the workers. Drops are counted (surfaced as
// Stats.EventsDropped) so silent loss is at least visible loss.
type broadcaster struct {
	dropped atomic.Int64

	mu   sync.Mutex
	next int
	subs map[int]chan Event
}

func (b *broadcaster) subscribe(buf int) (<-chan Event, func()) {
	if buf < 1 {
		buf = 64
	}
	ch := make(chan Event, buf)
	b.mu.Lock()
	if b.subs == nil {
		b.subs = make(map[int]chan Event)
	}
	id := b.next
	b.next++
	b.subs[id] = ch
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		if _, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(ch)
		}
		b.mu.Unlock()
	}
	return ch, cancel
}

func (b *broadcaster) emit(ev Event) {
	b.mu.Lock()
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default:
			// Drop rather than block a worker, but keep count.
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// droppedCount reports how many events have been dropped so far.
func (b *broadcaster) droppedCount() int64 { return b.dropped.Load() }
