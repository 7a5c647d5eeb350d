package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rsr/internal/fault"
	"rsr/internal/obs"
)

// boolArg renders a boolean as a span annotation value.
func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ErrClosed is returned by Submit after Close, and by tickets whose job was
// still pending when the engine shut down.
var ErrClosed = errors.New("engine: closed")

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent simulations (0 = runtime.GOMAXPROCS(0)).
	Workers int
	// CacheDir enables the on-disk result cache ("" = memory-only).
	CacheDir string
	// DefaultTimeout bounds each job's execution unless the job sets its
	// own Timeout (0 = no limit). A job that runs past its deadline fails
	// with ErrDeadline.
	DefaultTimeout time.Duration
	// Fault optionally injects deterministic faults at the engine's
	// instrumented sites — cache reads/writes and job runs — for chaos
	// testing (nil = no injection).
	Fault fault.Injector
	// Metrics, when non-nil, exposes the engine through the registry: the
	// Stats counters re-expressed as metric families (mirrored at scrape
	// time, so Stats stays the source of truth), a job latency histogram,
	// and per-phase sampling metrics from inside every run.
	// Tracer, when non-nil, records engine spans (job-run, cache-load,
	// trace-record) plus the per-cluster phase spans of every job, each job
	// on its own trace track. Both default off and add one branch when off.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Engine is a bounded worker-pool scheduler for simulation jobs with
// single-flight deduplication and a content-addressed result cache. All
// methods are safe for concurrent use.
type Engine struct {
	opts   Options
	cache  *cache
	traces *traceStore
	stats  counters
	obs    *engineObs // nil unless Options enables metrics or tracing

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*task // FIFO of tasks awaiting a worker
	inflight map[string]*task
	closed   bool

	wg sync.WaitGroup
}

// task is the shared execution state behind every Ticket for one job hash.
type task struct {
	job   Job
	hash  string
	sweep string          // first submitter's sweep trace tag, stamped on spans
	ctx   context.Context // the first submitter's context governs the run

	done chan struct{} // closed once res/err are set
	res  *Result
	err  error
}

// Ticket is a handle to a submitted job. Tickets for coalesced duplicate
// submissions share the underlying result.
type Ticket struct{ t *task }

// Hash returns the job's content address (also its daemon-facing ID).
func (tk *Ticket) Hash() string { return tk.t.hash }

// Done is closed when the job has finished (successfully or not).
func (tk *Ticket) Done() <-chan struct{} { return tk.t.done }

// Result returns the outcome without blocking; it reports false until the
// job has finished.
func (tk *Ticket) Result() (*Result, error, bool) {
	select {
	case <-tk.t.done:
		return tk.t.res, tk.t.err, true
	default:
		return nil, nil, false
	}
}

// Wait blocks until the job finishes or ctx is canceled. Canceling the
// waiter's ctx abandons only this wait; the run itself is governed by the
// first submitter's context and the job timeout.
func (tk *Ticket) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-tk.t.done:
		return tk.t.res, tk.t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// New starts an engine and its worker pool. Call Close to stop the workers.
// A cache directory that turns out to be unusable degrades the engine to
// memory-only caching (counted in Stats.DiskErrors) rather than failing.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		opts:     opts,
		cache:    newCache(opts.CacheDir, opts.Fault),
		traces:   newTraceStore(TraceBudget),
		inflight: make(map[string]*task),
	}
	e.cond = sync.NewCond(&e.mu)
	e.obs = newEngineObs(opts.Metrics, opts.Tracer, e.Stats)
	e.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// Stats returns a snapshot of the progress counters.
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot(e.cache.diskErrs.Load(), e.cache.store.Stats().Quarantined)
	e.traces.stats(&s)
	return s
}

// Submit validates and enqueues a job, returning immediately. The result
// of an identical job already in flight is shared (single-flight), and a
// cached result completes the ticket without queueing. ctx governs the run
// for the first submitter of a job.
func (e *Engine) Submit(ctx context.Context, job Job) (*Ticket, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	hash := job.Hash()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if t, ok := e.inflight[hash]; ok {
		e.mu.Unlock()
		e.stats.coalesced.Add(1)
		return &Ticket{t}, nil
	}
	t := &task{job: job, hash: hash, sweep: SweepFrom(ctx), ctx: ctx, done: make(chan struct{})}
	e.inflight[hash] = t
	e.queue = append(e.queue, t)
	e.cond.Signal()
	e.mu.Unlock()

	e.stats.queued.Add(1)
	return &Ticket{t}, nil
}

// Run submits a job and waits for its result.
func (e *Engine) Run(ctx context.Context, job Job) (*Result, error) {
	tk, err := e.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	return tk.Wait(ctx)
}

// Close stops accepting jobs, fails everything still queued with ErrClosed,
// and waits for running jobs to finish. Jobs already executing run to
// completion (or their timeout).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	pending := e.queue
	e.queue = nil
	for _, t := range pending {
		delete(e.inflight, t.hash)
	}
	e.cond.Broadcast()
	e.mu.Unlock()

	for _, t := range pending {
		e.stats.queued.Add(-1)
		e.complete(t, nil, ErrClosed, 0, false)
	}
	e.wg.Wait()
}

// Quiesce blocks until the engine has no queued or running jobs, or until
// ctx is done, reporting whether idleness was reached. It does not stop the
// engine or refuse new work — it is the wait half of a graceful drain, used
// by the daemon after it stops accepting submissions.
func (e *Engine) Quiesce(ctx context.Context) bool {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		e.mu.Lock()
		idle := len(e.inflight) == 0 && len(e.queue) == 0
		e.mu.Unlock()
		if idle {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-tick.C:
		}
	}
}

// pop blocks until a task is available or the engine closes.
func (e *Engine) pop() *task {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.queue) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.queue) == 0 {
		return nil
	}
	t := e.queue[0]
	e.queue = e.queue[1:]
	return t
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		t := e.pop()
		if t == nil {
			return
		}
		e.execute(t)
	}
}

// execute runs one task: cache lookup, then the simulation under the
// submitter's context and the job deadline. A job runs at most once per
// submission: it is deterministic, so whatever made it fail would again, and
// a failure is never cached, so a caller may resubmit.
func (e *Engine) execute(t *task) {
	e.stats.queued.Add(-1)
	tid := e.obs.jobTID()

	if err := t.ctx.Err(); err != nil {
		e.finish(t, nil, err, 0, false)
		return
	}
	c0 := time.Now()
	r, class := e.cache.get(t.hash)
	e.obs.span(t.sweep, "cache-load", tid, c0, obs.SpanArg{Key: "hit", Val: int64(class)})
	if class != hitMiss {
		e.stats.cacheHits.Add(1)
		if class == hitDisk {
			e.stats.diskHits.Add(1)
		}
		e.finish(t, r, nil, 0, true)
		return
	}
	e.stats.cacheMiss.Add(1)

	res, wall, err := e.run(t, tid)
	if err != nil {
		e.finish(t, nil, err, wall, false)
		return
	}
	res.JobHash = t.hash
	res.Wall = wall
	e.cache.put(t.hash, res)
	e.finish(t, res, nil, wall, false)
}

// run executes the job under its deadline, with worker panics isolated to
// typed errors.
func (e *Engine) run(t *task, tid int64) (*Result, time.Duration, error) {
	e.stats.running.Add(1)
	defer e.stats.running.Add(-1)

	ctx := t.ctx
	timeout := t.job.Timeout
	if timeout == 0 {
		timeout = e.opts.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	begin := time.Now()
	res, before, err := safeRun(t.job, e.opts.Fault, ctx.Done(), e.obs, t.sweep, tid, e.traces)
	begin = begin.Add(before) // the job's run starts after its placement's recording and plan build
	wall := time.Since(begin)
	e.stats.wallNanos.Add(int64(before))
	e.obs.span(t.sweep, "job-run", tid, begin, obs.SpanArg{Key: "ok", Val: boolArg(err == nil)})
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			e.stats.panics.Add(1)
		}
		// Prefer the context's verdict when the simulation reports a
		// cooperative abort: cancellation from the submitter wins, and a
		// per-job deadline maps to the distinct ErrDeadline.
		switch {
		case t.ctx.Err() != nil:
			err = fmt.Errorf("engine: %s: %w", t.job.Label(), t.ctx.Err())
		case ctx.Err() != nil:
			err = fmt.Errorf("engine: %s: %w after %v (%w)",
				t.job.Label(), ErrDeadline, wall.Round(time.Millisecond), context.DeadlineExceeded)
		}
		return nil, wall, err
	}
	return res, wall, nil
}

// finish publishes a task's outcome, retires it from the in-flight table,
// and wakes every ticket holder.
func (e *Engine) finish(t *task, res *Result, err error, wall time.Duration, cached bool) {
	e.mu.Lock()
	// Close may have already retired queued tasks; only delete our own entry.
	if cur, ok := e.inflight[t.hash]; ok && cur == t {
		delete(e.inflight, t.hash)
	}
	e.mu.Unlock()
	e.complete(t, res, err, wall, cached)
}

// complete publishes the ticket outcome; the in-flight table must already be
// updated. Counters and the latency observation are published before the
// ticket is closed, so a caller woken by Done reads Stats that already
// include its job.
func (e *Engine) complete(t *task, res *Result, err error, wall time.Duration, cached bool) {
	switch {
	case err != nil:
		e.stats.failed.Add(1)
		e.obs.observeJob("failed", wall)
	case !cached:
		e.stats.done.Add(1)
		e.stats.wallNanos.Add(int64(wall))
		e.obs.observeJob("done", wall)
	}
	t.res, t.err = res, err
	close(t.done)
}
