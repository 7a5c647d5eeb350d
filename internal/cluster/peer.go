package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rsr/internal/cas"
	"rsr/internal/engine"
	"rsr/internal/fault"
	"rsr/internal/obs"
)

// PeerOptions configures a worker peer.
type PeerOptions struct {
	// Node is this worker's cluster-unique name ("" = hostname-pid).
	Node string
	// Coordinator is the coordinator's base URL, e.g. "http://host:9000".
	Coordinator string
	// Advertise is this worker's externally reachable base URL, e.g.
	// "http://host:9800". It rides in every heartbeat and is used for the
	// sweep trace only: the coordinator pulls the worker's span ring
	// (/v1/trace) from it. Empty means the trace skips this worker.
	Advertise string
	// Engine executes leased jobs locally. The peer runs one pull loop per
	// engine worker, each leasing and running one item at a time, so the
	// engine's pool size bounds this node's in-flight leases.
	Engine *engine.Engine
	// HeartbeatEvery is the liveness reporting period (0 =
	// DefaultHeartbeatEvery). It must be comfortably under the coordinator's
	// heartbeat timeout.
	HeartbeatEvery time.Duration
	// PollEvery is the idle backoff between empty pulls (0 = 250ms).
	PollEvery time.Duration
	// Fault optionally injects chaos at the fabric's instrumented site:
	// a fault.NodeKill firing makes this peer die abruptly — loops stop,
	// heartbeats cease, leased work is never reported — exactly what a
	// crashed machine looks like to the coordinator.
	Fault fault.Injector
	// Metrics, when non-nil, exposes the peer's reconnect and pull-failure
	// counters on the worker's /metrics.
	Metrics *obs.Registry
	// Log receives the peer's structured log lines (nil = slog.Default()).
	Log *slog.Logger
	// HTTP overrides the transport (nil = 30s-timeout client).
	HTTP *http.Client
}

// heartbeatFailThreshold is how many consecutive heartbeat failures the peer
// tolerates (each Debug-logged) before concluding the coordinator is gone:
// the failure is escalated to Warn, the peer reports itself not ready, and
// the reconnect state machine takes over.
const heartbeatFailThreshold = 3

// DefaultHeartbeatEvery is a worker's heartbeat period unless
// PeerOptions.HeartbeatEvery sets another; rsrd has no flag for it.
const DefaultHeartbeatEvery = time.Second

// MinHeartbeatTimeout is the shortest coordinator heartbeat timeout a worker
// beating every DefaultHeartbeatEvery can meet: heartbeatFailThreshold beats.
// A worker whose pull loops are all busy refreshes its liveness only by
// heartbeat, so a shorter timeout reaps live workers mid-job.
const MinHeartbeatTimeout = heartbeatFailThreshold * DefaultHeartbeatEvery

// reconnectCap bounds the reconnect backoff window.
const reconnectCap = 5 * time.Second

// reconnectDelay maps (node, attempt) to the attempt's backoff before the
// next reconnect probe: uniform over [0, HeartbeatEvery*2^(attempt-1)] capped
// at reconnectCap, drawn by FNV-1a — allocation-free, deterministic, and independent of the global math/rand
// stream, so a fleet of workers orphaned by one coordinator restart spreads
// its probes instead of stampeding in lockstep.
func reconnectDelay(node string, attempt int, base time.Duration) time.Duration {
	window := base << uint(attempt-1)
	if window > reconnectCap || window <= 0 {
		window = reconnectCap
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "reconnect|%s|%d", node, attempt)
	return time.Duration(h.Sum64() % uint64(window+1))
}

// peerObs is the worker-side metric surface of the fabric. With a nil
// registry every instrument is nil, which the obs package turns into no-ops.
type peerObs struct {
	reconnects   *obs.Counter
	pullFailures *obs.Counter
}

func newPeerObs(reg *obs.Registry) *peerObs {
	o := &peerObs{}
	if reg == nil {
		return o
	}
	o.reconnects = reg.Counter("rsr_peer_reconnects_total",
		"Times this peer lost the coordinator and successfully re-attached (re-handshake plus a landed heartbeat).")
	o.pullFailures = reg.Counter("rsr_peer_pull_failures_total",
		"Work pulls that failed for transient reasons (transport errors, unexpected statuses); idle 204s are not failures.")
	return o
}

// Peer is a worker participating in a coordinator's sweep fabric: it
// heartbeats, pulls work, runs it on the local engine, and reports each
// outcome, a result in its completion report.
type Peer struct {
	opts PeerOptions
	hc   *http.Client
	log  *slog.Logger
	obs  *peerObs

	// connected is false while the coordinator is unreachable (the reconnect
	// state machine owns it); pull loops idle and /readyz reports not-ready
	// until it is restored.
	connected atomic.Bool

	// mu guards leases: the job IDs this peer is executing or still
	// reporting, listed in every heartbeat so a journal-recovered
	// coordinator keeps exactly those of its journaled leases.
	mu     sync.Mutex
	leases map[string]bool

	// hello stays true until a heartbeat lands: the first one tells the
	// coordinator that leases it records under this node name belong to an
	// earlier process. Touched only by beat, which Start, the heartbeat loop
	// and reconnect call one at a time.
	hello bool

	ctx    context.Context
	cancel context.CancelFunc
	once   sync.Once
	wg     sync.WaitGroup
}

// NewPeer validates options and prepares a peer; Start begins participation.
func NewPeer(opts PeerOptions) (*Peer, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("cluster: peer needs a coordinator URL")
	}
	if opts.Engine == nil {
		return nil, fmt.Errorf("cluster: peer needs an engine")
	}
	if opts.Node == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "rsrd"
		}
		opts.Node = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if opts.PollEvery <= 0 {
		opts.PollEvery = 250 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	hc := opts.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Peer{
		opts:   opts,
		hc:     hc,
		log:    opts.Log.With("node", opts.Node),
		obs:    newPeerObs(opts.Metrics),
		leases: make(map[string]bool),
		hello:  true,
		ctx:    ctx,
		cancel: cancel,
	}, nil
}

// Connected reports whether the coordinator was reachable at the last
// heartbeat. rsrd's peer-mode /readyz reports not-ready while this is false:
// a worker that cannot reach its coordinator is not doing useful work, and
// the fleet's health rollup should say so.
func (p *Peer) Connected() bool { return p.connected.Load() }

// trackLease records a leased job as executing; untrackLease removes it once
// its outcome has been reported. Between the two, heartbeats list the lease.
func (p *Peer) trackLease(id string) {
	p.mu.Lock()
	p.leases[id] = true
	p.mu.Unlock()
}

func (p *Peer) untrackLease(id string) {
	p.mu.Lock()
	delete(p.leases, id)
	p.mu.Unlock()
}

// inflightLeases snapshots the advertised lease IDs, sorted for
// deterministic heartbeat payloads.
func (p *Peer) inflightLeases() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.leases) == 0 {
		return nil
	}
	return sortedKeys(p.leases)
}

// Start performs the version handshake and launches the heartbeat and pull
// loops. A protocol mismatch is an error: mixed-version fleets fail fast
// rather than corrupt a sweep.
func (p *Peer) Start() error {
	v, err := fetchVersion(p.ctx, p.hc, p.opts.Coordinator)
	if err != nil {
		return fmt.Errorf("cluster: coordinator handshake: %w", err)
	}
	if v.Protocol != ProtocolVersion {
		return fmt.Errorf("%w: coordinator %d, this worker %d",
			ErrProtocol, v.Protocol, ProtocolVersion)
	}
	// The Hello heartbeat lands before any pull: pull loops idle until a
	// heartbeat has, so the coordinator never leases work to this process
	// that the Hello would then take back as an earlier process's.
	p.connected.Store(p.beat())
	pulls := p.opts.Engine.Workers()
	p.wg.Add(1 + pulls)
	go p.heartbeatLoop()
	for i := 0; i < pulls; i++ {
		go p.pullLoop()
	}
	p.log.Info("joined cluster", "coordinator", p.opts.Coordinator, "pulls", pulls)
	return nil
}

// Close stops the loops and waits for them. The engine is not closed — the
// caller owns it — and an execution in flight keeps running, its completion
// report simply never sent (the coordinator requeues it, exactly as for a
// crashed node).
func (p *Peer) Close() {
	p.die("close")
	p.wg.Wait()
}

// Killed reports whether the peer has stopped participating (Close or an
// injected node kill).
func (p *Peer) Killed() bool {
	select {
	case <-p.ctx.Done():
		return true
	default:
		return false
	}
}

// die halts all participation abruptly: no goodbye to the coordinator, which
// must discover the loss through missing heartbeats.
func (p *Peer) die(why string) {
	p.once.Do(func() {
		p.log.Warn("peer stopping", "why", why)
		p.cancel()
	})
}

// heartbeatLoop keeps the coordinator's liveness view fresh, and is also the
// peer's failure detector: consecutive heartbeat failures past the threshold
// escalate from Debug to Warn, flip the peer to not-connected (pull loops
// idle, /readyz goes 503), and hand control to the reconnect state machine
// until the coordinator answers again.
func (p *Peer) heartbeatLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.opts.HeartbeatEvery)
	defer tick.Stop()
	fails := 0
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-tick.C:
		}
		if p.beat() {
			fails = 0
			p.connected.Store(true)
			continue
		}
		fails++
		if fails < heartbeatFailThreshold {
			continue
		}
		p.connected.Store(false)
		p.log.Warn("coordinator unreachable; reconnecting",
			"consecutive_failures", fails)
		if !p.reconnect() {
			return
		}
		fails = 0
	}
}

// reconnect probes the coordinator with bounded, jittered exponential
// backoff until a handshake and heartbeat both land, then restores the
// connected state. The re-handshake matters: the coordinator that comes back
// may be an upgraded binary, and a protocol mismatch must kill this worker
// exactly as the initial Start would have. The heartbeat that completes the
// reconnect lists every in-flight lease, so a journal-recovered coordinator
// keeps this node's running work and requeues only what it no longer runs.
// Returns false when the peer died (ctx canceled or protocol skew).
func (p *Peer) reconnect() bool {
	for attempt := 1; ; attempt++ {
		select {
		case <-p.ctx.Done():
			return false
		case <-time.After(reconnectDelay(p.opts.Node, attempt, p.opts.HeartbeatEvery)):
		}
		v, err := fetchVersion(p.ctx, p.hc, p.opts.Coordinator)
		if err != nil {
			p.log.Debug("reconnect probe failed", "attempt", attempt, "err", err)
			continue
		}
		if v.Protocol != ProtocolVersion {
			p.die("protocol mismatch after coordinator restart")
			return false
		}
		if !p.beat() {
			continue
		}
		p.connected.Store(true)
		p.obs.reconnects.Inc()
		p.log.Info("coordinator reconnected",
			"attempts", attempt, "leases_advertised", len(p.inflightLeases()))
		return true
	}
}

// beat sends one heartbeat carrying the local engine's queue depth, in-flight
// count, and the IDs of every lease this peer is
// executing — the coordinator's per-node backpressure signal and, after a
// coordinator restart or in this process's Hello, the list of leases it
// keeps. A 409 means protocol skew (a coordinator upgraded under us): fail
// fast. The reply's body, if any, is ignored. Reports whether the heartbeat
// landed.
func (p *Peer) beat() bool {
	st := p.opts.Engine.Stats()
	hb := Heartbeat{
		Node:       p.opts.Node,
		Protocol:   ProtocolVersion,
		Addr:       p.opts.Advertise,
		QueueDepth: st.Queued,
		Inflight:   st.Running,
		Leases:     p.inflightLeases(),
		Hello:      p.hello,
	}
	code, _, err := p.postJSON("/v1/peers/heartbeat", hb)
	if err != nil {
		p.log.Debug("heartbeat failed", "err", err)
		return false
	}
	if code == http.StatusConflict {
		p.die("protocol mismatch with coordinator")
		return false
	}
	if code != http.StatusOK {
		return false
	}
	p.hello = false
	return true
}

func (p *Peer) pullLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		default:
		}
		// While the reconnect machine owns the coordinator relationship,
		// pulling would only generate failed requests; idle until it is done.
		if !p.connected.Load() {
			select {
			case <-p.ctx.Done():
				return
			case <-time.After(p.opts.PollEvery):
			}
			continue
		}
		it, ok := p.pull()
		if !ok {
			select {
			case <-p.ctx.Done():
				return
			case <-time.After(p.opts.PollEvery):
			}
			continue
		}
		// The chaos point: a firing NodeKill rule kills this peer right
		// after it leased work — the worst moment for the coordinator,
		// which must notice via heartbeats and requeue the lease.
		if d := fault.Check(p.opts.Fault, fault.NodeKill, p.opts.Node); d != nil {
			p.die("injected node kill")
			return
		}
		p.trackLease(it.ID)
		p.runItem(it)
		p.untrackLease(it.ID)
	}
}

// pull leases one item; ok is false when there is nothing to run. The
// non-200 statuses are not one condition: 204 is the coordinator saying
// "idle" and costs nothing, a 409 is protocol skew and kills the worker the
// same way a heartbeat 409 does (a lease negotiated across a version
// mismatch could corrupt a sweep), and anything else — transport errors,
// 5xx — is a transient fault that is counted and retried after the poll
// backoff.
func (p *Peer) pull() (*WorkItem, bool) {
	code, body, err := p.postJSON("/v1/peers/pull", PullRequest{Node: p.opts.Node})
	if err != nil {
		p.obs.pullFailures.Inc()
		p.log.Debug("pull failed", "err", err)
		return nil, false
	}
	switch code {
	case http.StatusOK:
	case http.StatusNoContent:
		return nil, false // idle, not a failure
	case http.StatusConflict:
		p.die("protocol mismatch with coordinator")
		return nil, false
	default:
		p.obs.pullFailures.Inc()
		p.log.Debug("pull refused", "status", code)
		return nil, false
	}
	var it WorkItem
	if err := json.Unmarshal(body, &it); err != nil {
		p.obs.pullFailures.Inc()
		p.log.Warn("bad work item", "err", err)
		return nil, false
	}
	return &it, true
}

// runItem executes one lease on the local engine and reports the outcome.
// The item's sweep tag rides along into the engine, so the worker's spans
// and its lease log line name the sweep the client submitted under.
func (p *Peer) runItem(it *WorkItem) {
	p.log.Info("lease started", "job", it.ID, "label", it.Job.Label(), "sweep", it.SweepID)
	tk, err := p.opts.Engine.Submit(engine.WithSweep(p.ctx, it.SweepID), it.Job)
	if err != nil {
		p.complete(CompleteRequest{Node: p.opts.Node, ID: it.ID, Error: err.Error()})
		return
	}
	res, err := tk.Wait(p.ctx)
	if err != nil {
		if p.ctx.Err() != nil {
			return // dying; the coordinator reaps the lease
		}
		// An engine failure is final: the job is deterministic, so another
		// run — here or on another node — would fail the same way.
		p.complete(CompleteRequest{Node: p.opts.Node, ID: it.ID, Error: err.Error()})
		return
	}
	blob, err := json.Marshal(res)
	if err != nil {
		p.complete(CompleteRequest{Node: p.opts.Node, ID: it.ID,
			Error: fmt.Sprintf("encode result: %v", err)})
		return
	}
	p.complete(CompleteRequest{Node: p.opts.Node, ID: it.ID, BlobSum: cas.Sum(blob), Result: blob})
}

// complete reports an outcome; a success carries the result bytes. The work
// is already done, so the report is worth waiting out a coordinator outage
// for: transport errors and 503s (a restarting or draining coordinator, or
// one whose store write failed) are retried for as long as the peer lives,
// with the same capped FNV-jittered backoff as reconnect probes — the lease
// stays listed in heartbeats the whole time, so a journal-recovered
// coordinator keeps it and then accepts this very report. A 409 means the
// coordinator could not verify the result (the bytes did not hash to their
// sum, did not decode, or are another job's result): the same bytes are sent
// again. After repeated 409s something is systematically wrong with the
// result, and the report becomes a transient failure carrying the refusal:
// the coordinator requeues the item, or fails it once its requeue budget is
// spent. Giving up silently would strand the lease, since this node keeps
// heartbeating.
func (p *Peer) complete(req CompleteRequest) {
	refusals := 0
	for attempt := 1; ; attempt++ {
		code, body, err := p.postJSON("/v1/peers/complete", req)
		switch {
		case err == nil && (code == http.StatusNoContent || code == http.StatusNotFound):
			// Landed — or the coordinator no longer knows the job (restarted
			// without this journal); either way there is nothing left to
			// report.
			p.log.Info("lease reported", "job", req.ID, "blob", req.BlobSum, "err", req.Error)
			return
		case err == nil && code == http.StatusConflict && req.Result != nil:
			refusals++
			if refusals <= 3 {
				p.log.Warn("completion refused, result unverified; resending", "job", req.ID)
				break
			}
			var refusal struct{ Error string }
			_ = json.Unmarshal(body, &refusal) // a body that is not the JSON error leaves the reason empty
			p.log.Warn("completion refused repeatedly; reporting a transient failure", "job", req.ID)
			req.Error = fmt.Sprintf("cluster: result blob refused %d times: %s", refusals, refusal.Error)
			req.BlobSum, req.Result, req.Transient = "", nil, true
		case err != nil || code == http.StatusServiceUnavailable:
			if attempt == heartbeatFailThreshold {
				p.log.Warn("completion delayed, coordinator unreachable",
					"job", req.ID, "attempts", attempt, "err", err)
			}
		default:
			// 4xx the coordinator will never change its mind about.
			p.log.Warn("completion rejected", "job", req.ID, "status", code)
			return
		}
		select {
		case <-p.ctx.Done():
			return
		case <-time.After(reconnectDelay(req.ID, attempt, 100*time.Millisecond)):
		}
	}
}

// postJSON posts v to the coordinator path and returns status and body.
func (p *Peer) postJSON(path string, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(p.ctx, http.MethodPost,
		p.opts.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	return resp.StatusCode, body, nil
}

// fetchVersion GETs a peer's /v1/version.
func fetchVersion(ctx context.Context, hc *http.Client, base string) (VersionInfo, error) {
	var v VersionInfo
	err := getJSON(ctx, hc, base+"/v1/version", 1<<20, &v)
	return v, err
}
