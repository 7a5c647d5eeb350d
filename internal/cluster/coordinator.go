package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"rsr/internal/cas"
	"rsr/internal/engine"
	"rsr/internal/fault"
	"rsr/internal/obs"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// QueuePerWorker bounds the queue: a submission is refused with ErrBusy
	// while QueuePerWorker × max(1, live workers) items are already waiting
	// for a lease (0 = 32).
	QueuePerWorker int
	// HeartbeatTimeout is how long a worker may go silent before it is
	// reaped and its work requeued (0 = 5s). A holder replayed from the
	// journal gets reconnectCap more for its first heartbeat.
	HeartbeatTimeout time.Duration
	// MaxRequeues bounds how many times one item may be requeued — after
	// transient failures or node loss — before it fails for good (0 = 3).
	MaxRequeues int
	// Journal, when non-nil, is the coordinator's write-ahead log (see
	// OpenJournal): every scheduling mutation is fsync'd to it before taking
	// effect, and the replay it carries is adopted at construction, so a
	// restarted coordinator resumes its sweeps instead of losing them.
	Journal *Journal
	// Fault optionally injects chaos at the coordinator's instrumented
	// site: a fault.CoordKill firing makes the coordinator crash abruptly
	// (see Crash) — the journal's moment of truth.
	Fault fault.Injector
	// Store is the shared content-addressed store for result blobs and
	// checkpoint chains (nil = a private in-memory store).
	Store *cas.Store
	// Metrics, when non-nil, exposes the fabric's per-node gauges and
	// scheduling counters for the coordinator's /metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records the coordinator's own scheduling spans —
	// one per item (lease to terminal state) and one per finished sweep — so
	// a merged fabric trace shows the coordinator's lane alongside the
	// workers'.
	Tracer *obs.Tracer
	// Log receives scheduling decisions worth an operator's attention
	// (nil = slog.Default()).
	Log *slog.Logger
}

// itemState is the lifecycle position of a work item.
type itemState int

const (
	itemQueued itemState = iota
	itemRunning
	itemDone
	itemFailed
)

// item is one accepted job and its scheduling state.
type item struct {
	id    string
	job   engine.Job
	reqID string
	// sweepID is the distributed trace tag of the sweep that submitted the
	// item ("" outside a traced sweep): propagated to workers on WorkItem so
	// their engine spans carry it, and stamped on the coordinator's own
	// per-item span.
	sweepID string
	tid     int64 // coordinator trace lane for this item's span

	state       itemState
	holder      string // the one node leasing a running item
	submittedAt time.Time
	firstStart  time.Time // set when leased; reset on requeue
	requeues    int

	res     *engine.Result
	blobSum string // the accepted result blob, named in snapshots
	errMsg  string
	done    chan struct{} // closed on done/failed
}

// node is one live worker.
type node struct {
	name     string
	lastBeat time.Time
	leases   map[string]bool // item IDs pulled and executing
	// replayed marks a holder registered from the journal that has not yet
	// sent a heartbeat: its first one settles which of its leases it still
	// runs, so until then it is given no new work.
	replayed bool
	// addr is the worker's advertised HTTP base URL (heartbeat payload),
	// used for trace and metrics aggregation fan-out; "" when the worker
	// advertises nothing.
	addr string
	// engQueued/engRunning are the worker's self-reported engine counters,
	// surfaced per node on the coordinator's /metrics.
	engQueued, engRunning int64
	// shardsInUse/shardCapacity are the worker's self-reported shard
	// utilization (heartbeat payload): shard goroutines occupied by executing
	// jobs vs the node's GOMAXPROCS. Older workers omit them (zero).
	shardsInUse   int64
	shardCapacity int
}

// sweep tracks the jobs submitted under one client tag (X-Sweep-ID): its key
// in Coordinator.sweeps, the id it reports and the distributed trace ID its
// spans are scoped to. (A replayed parent-format sweep the deleted batch
// endpoint formed has no tag and is keyed by its old sweep-N id.)
type sweep struct {
	ids       []string        // members, in the order they joined
	has       map[string]bool // the same, for the membership test
	startedAt time.Time
	// participants maps node name → advertised addr for every node that
	// leased one of the sweep's items; the trace aggregation fan-out target
	// set. Addresses are captured at lease time so a node reaped later can
	// still be polled (best effort).
	participants map[string]string
	// durationObserved guards the one-shot sweep-duration observation.
	durationObserved bool
}

// Coordinator schedules a sweep's jobs across peer workers. All methods are
// safe for concurrent use.
type Coordinator struct {
	opts  CoordinatorOptions
	store *cas.Store
	log   *slog.Logger
	obs   *coordObs
	tr    *obs.Tracer // nil-safe; scheduling spans for the fabric trace

	mu       sync.Mutex
	nodes    map[string]*node
	items    map[string]*item
	queue    []*item // FIFO of accepted, unleased work; every free worker slot pulls its front
	sweeps   map[string]*sweep
	closed   bool
	draining bool
	journal  *Journal // the write-ahead log (nil = memory-only coordinator)

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator starts a coordinator and its reaper. Call Close to stop.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.QueuePerWorker <= 0 {
		opts.QueuePerWorker = 32
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	if opts.MaxRequeues <= 0 {
		opts.MaxRequeues = 3
	}
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	st := opts.Store
	if st == nil {
		st = cas.NewStore("")
	}
	c := &Coordinator{
		opts:   opts,
		store:  st,
		log:    opts.Log,
		tr:     opts.Tracer,
		nodes:  make(map[string]*node),
		items:  make(map[string]*item),
		sweeps: make(map[string]*sweep),
		stop:   make(chan struct{}),
	}
	c.obs = newCoordObs(opts.Metrics, c)
	if opts.Journal != nil {
		c.journal = opts.Journal
		c.journal.instrument(c.obs.journalFsync, c.obs.journalRecords)
		c.adoptReplay(c.journal.Replay())
	}
	c.wg.Add(1)
	go c.reapLoop()
	return c
}

// adoptReplay rebuilds the scheduler from journal-reconstructed state:
// finished items are served straight from their CAS result blobs, queued
// items fill the queue (in ID order: the journal keeps no placement), and
// running items keep their journaled holder, registered as a node that has
// not yet sent a heartbeat — its first one says which of those leases it
// still runs (see Heartbeat), and the reaper retires it if it never comes
// back. A running item with no holder left is requeued behind the queued
// ones. Runs before the reaper starts; no lock needed.
func (c *Coordinator) adoptReplay(rp *Replay) {
	now := time.Now()
	var orphans []*item
	for _, ri := range rp.Items {
		it := &item{
			id:          ri.ID,
			job:         ri.Job,
			reqID:       ri.ReqID,
			sweepID:     ri.Sweep,
			tid:         c.tr.NextTID(),
			submittedAt: now,
			done:        make(chan struct{}),
		}
		it.requeues = ri.Requeues
		state := ri.State
		if state == "done" {
			res := new(engine.Result)
			b, err := c.store.Get(ri.BlobSum)
			if err == nil {
				err = json.Unmarshal(b, res)
			}
			if err != nil || res.JobHash != ri.ID {
				// The journal promised a result the store can no longer
				// produce (memory-only store, evicted disk, corruption):
				// recompute — determinism makes the re-run byte-identical.
				c.log.Warn("replayed result blob unavailable; requeued",
					"job", ri.ID, "blob", ri.BlobSum, "err", err)
				state = "blob-missing"
			} else {
				it.state, it.res, it.blobSum = itemDone, res, ri.BlobSum
				close(it.done)
			}
		}
		switch state {
		case "done": // adopted above
		case "failed":
			it.state, it.errMsg = itemFailed, ri.ErrMsg
			close(it.done)
		case "running":
			it.state, it.firstStart = itemRunning, now
			if len(ri.Holders) == 0 {
				orphans = append(orphans, it)
				break
			}
			// A parent-format journal may name a second holder, a duplicate
			// lease raced against a slow one: the first keeps the lease, the
			// other's report is a non-holder's.
			it.holder = ri.Holders[0]
			n := c.nodes[it.holder]
			if n == nil {
				n = &node{name: it.holder, lastBeat: now, leases: make(map[string]bool), replayed: true}
				c.nodes[n.name] = n
			}
			n.leases[it.id] = true
		default: // queued, blob-missing
			it.state = itemQueued
			c.queue = append(c.queue, it)
		}
		c.items[ri.ID] = it
		c.obs.replayed.With(state).Inc()
	}
	for key, ids := range rp.Sweeps {
		for _, id := range ids {
			c.joinSweepLocked(key, id)
		}
	}
	for _, it := range orphans {
		c.loseLeaseLocked(it, "no holder journaled")
	}
	c.log.Info("journal replayed",
		"items", len(rp.Items), "sweeps", len(rp.Sweeps), "holders", len(c.nodes),
		"records", rp.Records, "quarantined_tail_bytes", rp.Quarantined)
}

// Store returns the coordinator's content-addressed store (mounted under
// /v1/cas/ by the HTTP layer; also usable in process by tests).
func (c *Coordinator) Store() *cas.Store { return c.store }

// Close stops the reaper and fails every unfinished item with ErrClosed so
// pollers unblock. Workers discover the shutdown through failed pulls.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	close(c.stop)
	// A graceful close keeps the journal's promise: compact the full live
	// state — pending items stay durably queued/running for the next start —
	// and detach before the finalization below, which exists only to unblock
	// in-process pollers and must not be recorded as real failures.
	if c.journal != nil {
		if err := c.journal.compact(c.snapshotLocked()); err != nil {
			c.log.Error("final journal compaction failed", "err", err)
		}
		c.journal.close()
		c.journal = nil
	}
	var pending []*item
	for _, it := range c.items {
		if it.state == itemQueued || it.state == itemRunning {
			pending = append(pending, it)
		}
	}
	for _, it := range pending {
		c.finalize(it, nil, ErrClosed.Error())
	}
	c.queue = nil
	c.mu.Unlock()
	c.wg.Wait()
}

// Crash simulates kill -9 for crash-recovery tests: all participation stops
// abruptly — no drain, no final compaction, no finalization of pending
// items, no further journal appends — exactly the state a dying coordinator
// process leaves behind. The journal directory can immediately be re-opened
// by a fresh coordinator. In-process Done waiters are not unblocked (a dead
// process would not have answered them either); HTTP tests emulate the
// connection loss at their own layer.
func (c *Coordinator) Crash() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	close(c.stop)
	if c.journal != nil {
		c.journal.close()
		c.journal = nil
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// CompactJournal folds the journal into a fresh snapshot now, regardless of
// the periodic threshold. A no-op without a journal.
func (c *Coordinator) CompactJournal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	return c.journal.compact(c.snapshotLocked())
}

// snapshotLocked renders the full scheduler state for compaction. Node
// registrations are deliberately absent: workers re-register through
// heartbeats within one timeout of a restart. Callers hold c.mu.
func (c *Coordinator) snapshotLocked() snapshot {
	snap := snapshot{Sweeps: make(map[string][]string)}
	for id, sw := range c.sweeps {
		snap.Sweeps[id] = sw.ids
	}
	for _, id := range sortedKeys(c.items) {
		it := c.items[id]
		si := snapItem{ID: id, Job: it.job, ReqID: it.reqID, Sweep: it.sweepID, Requeues: it.requeues}
		switch it.state {
		case itemQueued:
			si.State = "queued"
		case itemRunning:
			si.State = "running"
			si.Holders = []string{it.holder}
		case itemDone:
			si.State, si.BlobSum = "done", it.blobSum
		case itemFailed:
			si.State, si.Error = "failed", it.errMsg
		}
		snap.Items = append(snap.Items, si)
	}
	return snap
}

// BeginDrain stops accepting new submissions; scheduled work continues so
// in-flight sweeps can finish. Readiness handlers report 503 while draining.
func (c *Coordinator) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Quiesce blocks until no item is queued or running, or until ctx is done,
// reporting whether idleness was reached: the wait half of a graceful
// drain, after BeginDrain stops new submissions.
func (c *Coordinator) Quiesce(ctx context.Context) bool {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		idle := true
		for _, it := range c.items {
			if it.state == itemQueued || it.state == itemRunning {
				idle = false
				break
			}
		}
		c.mu.Unlock()
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

// Draining reports whether BeginDrain has been called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Submit accepts one job, returning its content-hash ID. Duplicate
// submissions — concurrent or after completion — coalesce onto the existing
// item. ErrBusy signals backpressure: the queue is at its bound (see
// CoordinatorOptions.QueuePerWorker) and the client should retry after a
// delay. sweepID is the distributed sweep tag ("" outside a traced sweep):
// stored on the item, handed to the leasing worker on its WorkItem (which
// scopes the worker's engine spans), and stamped on the coordinator's own
// per-item span.
func (c *Coordinator) Submit(job engine.Job, reqID, sweepID string) (string, error) {
	if err := job.Validate(); err != nil {
		return "", err
	}
	id := job.Hash()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", ErrClosed
	}
	if c.draining {
		return "", ErrBusy
	}
	if it, ok := c.items[id]; ok {
		if it.sweepID == "" {
			// A coalesced resubmission may carry the trace tag the original
			// lacked (e.g. a retry after the sweep header was added).
			it.sweepID = sweepID
		}
		if sweepID != "" && c.joinSweepLocked(sweepID, id) {
			// The existing item has no submit record under this tag.
			c.journal.append(journalRecord{Kind: recTag, ID: id, Sweep: sweepID})
		}
		c.obs.coalesced.Inc()
		return id, nil
	}
	it := &item{
		id:          id,
		job:         job,
		reqID:       reqID,
		sweepID:     sweepID,
		tid:         c.tr.NextTID(),
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	// Refuse before journaling, so a refused submission leaves no record;
	// journal before mutating, so an accepted one is durable before the
	// client's 202.
	if len(c.queue) >= c.opts.QueuePerWorker*max(1, c.liveWorkersLocked(time.Now())) {
		c.obs.rejected.Inc()
		return "", ErrBusy
	}
	c.journal.append(journalRecord{Kind: recSubmit, ID: id, Job: &job, ReqID: reqID, Sweep: sweepID})
	c.queue = append(c.queue, it)
	c.items[id] = it
	c.obs.submitted.Inc()
	if sweepID != "" {
		c.joinSweepLocked(sweepID, id) // journaled by the submit record
	}
	return id, nil
}

// joinSweepLocked makes an item a member of the sweep its submission's tag
// names, creating the sweep on first use: the only way a sweep forms. Jobs
// submitted individually under a shared X-Sweep-ID thereby become one
// observable sweep — resolvable by tag for status and fabric trace
// aggregation, measured by the sweep-duration histogram, counted in the
// sweep-jobs gauges. It reports whether the item was not a member before.
// Callers hold c.mu.
func (c *Coordinator) joinSweepLocked(tag, itemID string) bool {
	sw := c.sweeps[tag]
	if sw == nil {
		sw = &sweep{has: make(map[string]bool),
			startedAt: time.Now(), participants: make(map[string]string)}
		c.sweeps[tag] = sw
	}
	if sw.has[itemID] {
		return false
	}
	sw.has[itemID] = true
	sw.ids = append(sw.ids, itemID)
	return true
}

// SweepStatus reports the progress of the sweep submitted under a tag.
func (c *Coordinator) SweepStatus(tag string) (SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw := c.sweeps[tag]
	if sw == nil {
		return SweepStatus{}, false
	}
	var t stateTally
	for _, m := range sw.ids {
		t.add(c.items[m])
	}
	return SweepStatus{ID: tag, Total: len(sw.ids), JobIDs: sw.ids,
		Done: t.done, Failed: t.failed, Pending: t.queued + t.running}, true
}

// stateTally counts items by lifecycle state: the one switch behind sweep
// status, the cluster status totals and the sweep-jobs gauges.
type stateTally struct{ queued, running, done, failed int }

func (t *stateTally) add(it *item) {
	switch it.state {
	case itemDone:
		t.done++
	case itemFailed:
		t.failed++
	case itemRunning:
		t.running++
	default:
		t.queued++
	}
}

// JobStatus is the poll-facing view of one item, shaped like rsrd's job
// status so clients can share decoding.
type JobStatus struct {
	ID     string         `json:"id"`
	Status string         `json:"status"` // pending, done, or failed
	Error  string         `json:"error,omitempty"`
	Result *engine.Result `json:"result,omitempty"`
}

// Status reports one job's state and, once finished, its result.
func (c *Coordinator) Status(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[id]
	if !ok {
		return JobStatus{}, false
	}
	st := JobStatus{ID: id, Status: "pending"}
	switch it.state {
	case itemDone:
		st.Status, st.Result = "done", it.res
	case itemFailed:
		st.Status, st.Error = "failed", it.errMsg
	}
	return st, true
}

// Done returns a channel closed when the item finishes, for in-process
// waiters (tests); false for unknown IDs.
func (c *Coordinator) Done(id string) (<-chan struct{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[id]
	if !ok {
		return nil, false
	}
	return it.done, true
}

// Heartbeat registers or refreshes a worker. A version-skewed worker is
// refused with ErrProtocol so mixed fleets fail fast.
//
// Two heartbeats are authoritative for their node's leases: a replayed
// holder's first one, and a worker process's first (Hello). Any lease the
// coordinator records for the node that such a heartbeat does not list is
// requeued — the worker is not running it, because it finished before the
// coordinator restarted or it belonged to an earlier process under the same
// name. Every other heartbeat leaves the lease table as it is.
func (c *Coordinator) Heartbeat(hb Heartbeat) error {
	if hb.Protocol != ProtocolVersion {
		return fmt.Errorf("%w: coordinator %d, worker %q %d",
			ErrProtocol, ProtocolVersion, hb.Node, hb.Protocol)
	}
	if hb.Node == "" {
		return fmt.Errorf("cluster: heartbeat without a node name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	n := c.touch(hb.Node)
	n.engQueued, n.engRunning = hb.QueueDepth, hb.Inflight
	n.shardsInUse, n.shardCapacity = hb.ShardsInUse, hb.ShardCapacity
	if hb.Addr != "" {
		n.addr = hb.Addr
	}
	if hb.Hello || n.replayed {
		n.replayed = false
		for _, id := range sortedKeys(n.leases) {
			if !slices.Contains(hb.Leases, id) {
				c.releaseLocked(n, id, fmt.Sprintf("lease not held by %s", n.name))
			}
		}
	}
	return nil
}

// releaseLocked takes a lease away from a node that no longer runs it and
// requeues the item, or fails it once its requeue budget is spent. Callers
// hold c.mu.
func (c *Coordinator) releaseLocked(n *node, id, why string) {
	delete(n.leases, id)
	if it := c.items[id]; it.state == itemRunning && it.holder == n.name {
		c.loseLeaseLocked(it, why)
	}
}

// loseLeaseLocked requeues a running item whose holder is gone, within its
// requeue budget; past it the item fails. Callers hold c.mu.
func (c *Coordinator) loseLeaseLocked(it *item, why string) {
	if it.requeues < c.opts.MaxRequeues {
		c.requeueLocked(it, why)
		return
	}
	c.finalize(it, nil, fmt.Sprintf("cluster: %s after %d requeues", why, it.requeues))
}

// touch returns the named node, creating it on first contact, and refreshes
// its liveness clock. Callers hold c.mu.
func (c *Coordinator) touch(name string) *node {
	n := c.nodes[name]
	if n == nil {
		n = &node{name: name, leases: make(map[string]bool)}
		c.nodes[name] = n
		c.log.Info("worker joined", "node", name)
	}
	n.lastBeat = time.Now()
	return n
}

// Pull leases the front of the queue to a worker, which becomes the item's
// one holder. Queue entries are references; one whose item stopped being
// queued while it waited (finalized) is discarded here, so a lease can never
// regress a terminal item back to running. A replayed holder gets nothing
// until its first heartbeat has settled its journaled leases: that heartbeat
// would requeue a lease granted before it. Returns nil when there is nothing
// to do.
func (c *Coordinator) Pull(nodeName string) *WorkItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || nodeName == "" {
		return nil
	}
	n := c.touch(nodeName)
	if n.replayed {
		return nil
	}
	it := c.popQueuedLocked()
	if it == nil {
		return nil
	}
	c.journal.append(journalRecord{Kind: recLease, ID: it.id, Node: nodeName})
	it.state, it.holder, it.firstStart = itemRunning, nodeName, time.Now()
	n.leases[it.id] = true
	if it.sweepID != "" {
		// Remember which nodes ran this sweep's work (and where to reach
		// them) for the trace aggregation fan-out.
		if sw := c.sweeps[it.sweepID]; sw != nil {
			sw.participants[nodeName] = n.addr
		}
	}
	return &WorkItem{ID: it.id, Job: it.job, RequestID: it.reqID, SweepID: it.sweepID}
}

// popQueuedLocked pops the front of the queue, discarding stale references
// (items no longer itemQueued) until it finds live work or empties the
// queue. Callers hold c.mu.
func (c *Coordinator) popQueuedLocked() *item {
	for len(c.queue) > 0 {
		it := c.queue[0]
		c.queue = c.queue[1:]
		if it.state == itemQueued {
			return it
		}
	}
	return nil
}

// Complete records one execution's outcome. Success must name a result blob
// already in the store; a blob that is missing, corrupt, or decodes to a
// different job's result is refused with ErrBadBlob (the worker re-uploads
// and retries). Only the item's holder may decide it: a report that raced
// the reaper — the node was presumed dead, its lease released and the item
// requeued — is dropped, so a late failure cannot kill work that is queued
// to run elsewhere, and a stray report (the API is unauthenticated) cannot
// decide a job it never leased. A transient failure is requeued within the
// item's budget; anything else fails the item.
func (c *Coordinator) Complete(req CompleteRequest) error {
	// The chaos point: a firing CoordKill rule crashes the coordinator as a
	// completion arrives — after real work has finished, before the outcome
	// is journaled — the worst moment for the write-ahead log, which must
	// recover the sweep with the completion lost in flight (the worker
	// retries it against the restarted coordinator).
	if d := fault.Check(c.opts.Fault, fault.CoordKill, req.ID); d != nil {
		c.log.Warn("injected coordinator kill", "job", req.ID)
		c.Crash()
		return ErrClosed
	}
	var res *engine.Result
	if req.Error == "" {
		b, err := c.store.Get(req.BlobSum)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadBlob, err)
		}
		res = new(engine.Result)
		if err := json.Unmarshal(b, res); err != nil {
			return fmt.Errorf("%w: decode: %v", ErrBadBlob, err)
		}
		if res.JobHash != req.ID {
			return fmt.Errorf("%w: blob is a result of job %.12s, not %.12s",
				ErrBadBlob, res.JobHash, req.ID)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	it, ok := c.items[req.ID]
	if !ok {
		return fmt.Errorf("%w: %.12s", ErrUnknownJob, req.ID)
	}
	if n := c.nodes[req.Node]; n != nil {
		delete(n.leases, req.ID)
		n.lastBeat = time.Now()
	}
	if it.state == itemDone || it.state == itemFailed {
		// A requeue raced a slow completion; results are deterministic so
		// the late copy is identical and simply dropped.
		c.obs.lateCompletes.Inc()
		return nil
	}
	if it.state != itemRunning || it.holder != req.Node {
		// The node does not hold a lease on this item: its lease was reaped
		// and the item requeued, or the report is a stray POST. The live
		// copy owns the item now — a late failure must not fail work that
		// would run fine elsewhere, and a late result is simply recomputed
		// (determinism makes the re-execution byte-identical).
		c.obs.staleCompletes.Inc()
		c.log.Warn("completion from non-holder dropped", "node", req.Node,
			"job", req.ID, "err", req.Error)
		return nil
	}
	if res != nil {
		it.blobSum = req.BlobSum
		c.finalize(it, res, "")
		return nil
	}
	if req.Transient && it.requeues < c.opts.MaxRequeues {
		c.requeueLocked(it, fmt.Sprintf("transient failure on %s: %s", req.Node, req.Error))
		return nil
	}
	c.finalize(it, nil, req.Error)
	return nil
}

// finalize publishes an item's terminal state. Callers hold c.mu.
func (c *Coordinator) finalize(it *item, res *engine.Result, errMsg string) {
	if it.state == itemDone || it.state == itemFailed {
		return
	}
	if res != nil {
		c.journal.append(journalRecord{Kind: recComplete, ID: it.id, BlobSum: it.blobSum})
		it.state, it.res = itemDone, res
		c.obs.completed.With("done").Inc()
	} else {
		c.journal.append(journalRecord{Kind: recComplete, ID: it.id, Error: errMsg})
		it.state, it.errMsg = itemFailed, errMsg
		c.obs.completed.With("failed").Inc()
	}
	now := time.Now()
	// One coordinator span per item, covering its whole scheduled life
	// (submission to terminal state), on the item's own lane.
	start := it.firstStart
	if start.IsZero() {
		start = it.submittedAt
	}
	if !start.IsZero() {
		c.tr.Scoped(it.sweepID).Record("job", "coord", it.tid,
			start, now.Sub(start),
			obs.SpanArg{Key: "requeues", Val: int64(it.requeues)})
	}
	c.sweepFinishedLocked(it, now)
	close(it.done)
}

// sweepFinishedLocked observes sweep-level completion after an item turned
// terminal at now: any sweep whose members are now all done/failed gets its
// duration histogram observation and (when traced) a sweep-wide span, once.
// Callers hold c.mu.
func (c *Coordinator) sweepFinishedLocked(it *item, now time.Time) {
	for tag, sw := range c.sweeps {
		if sw.durationObserved || !sw.has[it.id] {
			continue
		}
		finished := true
		for _, id := range sw.ids {
			if m := c.items[id]; m.state != itemDone && m.state != itemFailed {
				finished = false
				break
			}
		}
		if !finished {
			continue
		}
		sw.durationObserved = true
		dur := now.Sub(sw.startedAt)
		c.obs.sweepDur.Observe(dur.Seconds())
		c.tr.Scoped(tag).Record("sweep", "coord", 0, sw.startedAt, dur,
			obs.SpanArg{Key: "jobs", Val: int64(len(sw.ids))})
		c.log.Info("sweep finished", "sweep", tag, "jobs", len(sw.ids),
			"duration", dur.Round(time.Millisecond))
	}
}

// requeueLocked puts a running item back at the end of the queue. The
// submission bound is not enforced for requeues: the work was already
// accepted. Callers hold c.mu.
func (c *Coordinator) requeueLocked(it *item, why string) {
	c.journal.append(journalRecord{Kind: recRequeue, ID: it.id})
	it.state, it.holder, it.firstStart = itemQueued, "", time.Time{}
	it.requeues++
	c.obs.requeues.Inc()
	c.log.Warn("requeued", "job", it.id, "attempt", it.requeues, "why", why)
	c.queue = append(c.queue, it)
}

// reapLoop periodically retires workers whose heartbeats stopped.
func (c *Coordinator) reapLoop() {
	defer c.wg.Done()
	every := c.opts.HeartbeatTimeout / 4
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.reap(time.Now())
		}
	}
}

// reap releases the leases of every node silent past the heartbeat timeout
// — plus reconnectCap for a replayed holder, the longest a live worker waits
// between reconnect probes — then removes the node. Nodes and their leases
// are visited in sorted order: the requeue order is the order the work runs
// in, so it must not depend on map iteration. An item over its requeue
// budget fails instead of cycling through dying nodes forever.
func (c *Coordinator) reap(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.sortedNodes() {
		name := n.name
		timeout := c.opts.HeartbeatTimeout
		if n.replayed {
			timeout += reconnectCap
		}
		if now.Sub(n.lastBeat) <= timeout {
			continue
		}
		c.log.Warn("worker lost", "node", name, "leased", len(n.leases),
			"silent_for", now.Sub(n.lastBeat).Round(time.Millisecond))
		c.journal.append(journalRecord{Kind: recReap, Node: name})
		delete(c.nodes, name)
		c.obs.nodesLost.Inc()
		c.obs.zeroNode(name)
		for _, id := range sortedKeys(n.leases) {
			c.releaseLocked(n, id, fmt.Sprintf("job lost with node %s", name))
		}
	}
	if c.journal != nil && c.journal.shouldCompact() {
		if err := c.journal.compact(c.snapshotLocked()); err != nil {
			c.log.Error("journal compaction failed", "err", err)
		}
	}
}

// sortedNodes returns the nodes in name order, making the reaper and the
// status view independent of map iteration order. Callers hold c.mu.
func (c *Coordinator) sortedNodes() []*node {
	ns := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].name < ns[j].name })
	return ns
}

// liveWorkersLocked counts the workers within their heartbeat window.
// Callers hold c.mu.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	live := 0
	for _, n := range c.nodes {
		if now.Sub(n.lastBeat) <= c.opts.HeartbeatTimeout {
			live++
		}
	}
	return live
}

// Tracer returns the coordinator's span tracer (nil when untraced), for the
// HTTP layer to include the coordinator's own lane in merged fabric traces.
func (c *Coordinator) Tracer() *obs.Tracer { return c.tr }

// SweepTraceInfo resolves a sweep by its tag, returning the participating
// nodes (name → advertised addr; "" when the node never advertised one). The
// HTTP layer fans trace pulls out to the participants.
func (c *Coordinator) SweepTraceInfo(tag string) (participants map[string]string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw := c.sweeps[tag]
	if sw == nil {
		return nil, false
	}
	participants = make(map[string]string, len(sw.participants))
	for name, addr := range sw.participants {
		if addr == "" {
			// The node's addr may have arrived on a later heartbeat.
			if n := c.nodes[name]; n != nil {
				addr = n.addr
			}
		}
		participants[name] = addr
	}
	return participants, true
}

// StatusSnapshot assembles the live fabric view served at GET /v1/status;
// the coordinator's /metrics gauges are mirrored from the same view.
func (c *Coordinator) StatusSnapshot() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var t stateTally
	for _, it := range c.items {
		t.add(it)
	}
	st := ClusterStatus{Draining: c.draining, Sweeps: len(c.sweeps),
		Queued: t.queued, Running: t.running, Done: t.done, Failed: t.failed}
	for _, n := range c.sortedNodes() {
		ns := NodeStatus{
			Node:          n.name,
			Addr:          n.addr,
			BeatAgeMS:     now.Sub(n.lastBeat).Milliseconds(),
			Inflight:      len(n.leases),
			EngQueued:     n.engQueued,
			EngRunning:    n.engRunning,
			ShardsInUse:   n.shardsInUse,
			ShardCapacity: n.shardCapacity,
		}
		for id := range n.leases {
			it := c.items[id]
			if it.state != itemRunning || it.firstStart.IsZero() {
				continue
			}
			if age := now.Sub(it.firstStart).Milliseconds(); age > ns.OldestLeaseAgeMS {
				ns.OldestLeaseAgeMS, ns.OldestLeaseJob = age, fmt.Sprintf("%.12s", id)
			}
		}
		st.Nodes = append(st.Nodes, ns)
	}
	if snap := c.obs.journalFsync.Snapshot(); snap.Count > 0 {
		st.JournalFsyncs = snap.Count
		st.JournalFsyncMeanMS = snap.Sum / float64(snap.Count) * 1e3
		st.JournalFsyncP99MS = histQuantileUpperMS(snap, 0.99)
	}
	return st
}

// histQuantileUpperMS returns an upper bound (in milliseconds) on the given
// quantile of a seconds-histogram: the bound of the first bucket whose
// cumulative count covers the quantile's nearest rank (the ceil(q·Count)-th
// smallest sample, so a lone sample is its own p99), or the largest finite
// bound for the overflow bucket.
func histQuantileUpperMS(snap obs.HistogramSnapshot, q float64) float64 {
	if snap.Count == 0 || len(snap.Bounds) == 0 {
		return 0
	}
	target := max(1, uint64(math.Ceil(q*float64(snap.Count))))
	for i, cum := range snap.Cumulative {
		if cum >= target && i < len(snap.Bounds) {
			return snap.Bounds[i] * 1e3
		}
	}
	return snap.Bounds[len(snap.Bounds)-1] * 1e3
}
