// Package cluster is the distributed sweep fabric: a coordinator (command
// rsrc) that splits a sweep's jobs across peer-mode rsrd workers, and the
// worker/client halves that talk to it.
//
// # Scheduling model
//
// The coordinator keeps one FIFO queue of accepted work, and every free
// worker slot pulls its front. A submission that finds the queue at its
// bound (QueuePerWorker × live workers) is refused with 503 + Retry-After,
// which is the fabric's backpressure signal (clients retry, see
// Client.Submit). A running item has exactly one holder, the worker that
// pulled it. Workers heartbeat; a node that misses the heartbeat timeout is
// reaped and its leased work is requeued, bounded by a per-item requeue
// budget. Heartbeats also list the worker's in-flight leases, and two of
// them are authoritative (see Coordinator.Heartbeat): a worker process's
// first, and a journal-replayed holder's first to a restarted coordinator.
// A lease such a heartbeat omits is requeued at once, so neither a worker
// restarted under the same name nor a coordinator restart strands work.
//
// Because every job is deterministic and content-addressed, the one
// duplicate execution this allows — a requeue racing a slow completion —
// produces byte-identical results, and the first verified completion wins.
//
// # Results and checkpoints
//
// Workers do not send results inline: a finished result is PUT into the
// coordinator's content-addressed store (internal/cas) and the completion
// report carries only the blob's SHA-256. The coordinator refuses blobs that
// do not decode to a result of the completed job, so a corrupt or misrouted
// upload can never complete an item. The same store shares pre-pass
// checkpoint chains (sampling.CheckpointStore) across nodes: the first
// worker to shard a given pre-pass publishes the chain, every later run of
// any job sharing that chain — on any node — skips straight to detailed
// simulation.
package cluster

import (
	"errors"
	"runtime"
	"runtime/debug"

	"rsr/internal/engine"
)

// ProtocolVersion is the fabric's wire-compatibility epoch. A worker whose
// protocol differs from the coordinator's is refused at handshake and
// heartbeat (HTTP 409), so mixed-version fleets fail fast instead of
// corrupting a sweep. Bump on any incompatible change to the wire types
// below or to job identity semantics.
//
// Version 2: the heartbeat response changed from 204 No Content to 200,
// which version-1 workers would misread as a failed beat.
//
// Version 3: engine.Job gained Strategy, an identity field. A version-2
// worker would decode a strategy job without it, run the unnamed design and
// report a result under a hash the coordinator never issued.
const ProtocolVersion = 3

// ErrProtocol reports a protocol-version mismatch between peers.
var ErrProtocol = errors.New("cluster: protocol version mismatch")

// ErrBusy reports that the queue is at its bound: the backpressure signal
// behind HTTP 503 + Retry-After.
var ErrBusy = errors.New("cluster: queue full")

// ErrClosed is returned by coordinator methods after Close.
var ErrClosed = errors.New("cluster: coordinator closed")

// ErrUnknownJob reports a status poll or completion for an ID the
// coordinator has never accepted.
var ErrUnknownJob = errors.New("cluster: unknown job")

// ErrBadBlob reports a completion whose result blob is missing from the
// store, fails verification, or does not decode to a result of the
// completed job. The worker should re-upload and retry the completion.
var ErrBadBlob = errors.New("cluster: result blob invalid")

// VersionInfo is the GET /v1/version payload of both rsrd and rsrc: enough
// for an operator (or the smoke script) to see at a glance what is running
// where, and for peers to refuse mixed-version fleets.
type VersionInfo struct {
	Protocol  int    `json:"protocol"`
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Dirty     bool   `json:"dirty,omitempty"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// Version reports this binary's build and protocol information.
func Version() VersionInfo {
	v := VersionInfo{
		Protocol:  ProtocolVersion,
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		v.Module = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				v.Revision = s.Value
			case "vcs.modified":
				v.Dirty = s.Value == "true"
			}
		}
	}
	return v
}

// Heartbeat is a worker's periodic liveness report. QueueDepth, Inflight,
// and the shard fields are the worker's local engine counters, and the only
// path by which they reach the coordinator, which exposes them per node on
// /metrics (rsr_cluster_node_*), giving operators the
// backpressure picture end to end: coordinator queue depth on one side,
// engine queue depth and shard utilization on the other. The shard fields
// are additive (older workers simply omit them), so they do not bump
// ProtocolVersion.
type Heartbeat struct {
	Node       string `json:"node"`
	Protocol   int    `json:"protocol"`
	QueueDepth int64  `json:"queue_depth"`
	Inflight   int64  `json:"inflight"`
	// ShardsInUse sums the shard counts of the jobs executing on the node
	// right now (engine.Stats.ShardsInUse); ShardCapacity is the node's
	// GOMAXPROCS. InUse/Capacity is the node's shard utilization.
	ShardsInUse   int64 `json:"shards_in_use,omitempty"`
	ShardCapacity int   `json:"shard_capacity,omitempty"`
	// Leases lists the job IDs this worker is executing right now, results
	// not yet reported included. The coordinator reads it only from an
	// authoritative heartbeat (Hello, or a replayed holder's first), where a
	// lease it records for the node and the list omits is requeued.
	// Additive, like the shard fields, so no ProtocolVersion bump.
	Leases []string `json:"leases,omitempty"`
	// Hello marks a worker process's heartbeats until one has landed: any
	// lease the coordinator still records under this node name belongs to
	// an earlier process and is requeued. Additive; an older worker omits
	// it, and a lease its earlier process held is then released only when
	// the node falls silent past the heartbeat timeout.
	Hello bool `json:"hello,omitempty"`
	// Addr is the worker's advertised HTTP base URL (e.g. http://host:8745),
	// used for the sweep trace only: the coordinator pulls the node's span
	// ring from it. Empty when the worker has nothing to advertise; the trace
	// then skips the node.
	Addr string `json:"addr,omitempty"`
}

// PullRequest asks the coordinator for one work item.
type PullRequest struct {
	Node string `json:"node"`
}

// WorkItem is one leased job. RequestID is the submitting client's
// correlation ID, propagated so the worker's engine events and logs carry
// the same ID the client saw on its submission.
type WorkItem struct {
	ID        string     `json:"id"` // the job's content hash
	Job       engine.Job `json:"job"`
	RequestID string     `json:"request_id,omitempty"`
	// SweepID tags the item with the distributed sweep that submitted it, so
	// every span the worker records while executing it carries the sweep and
	// the coordinator can later pull one sweep's spans out of every node's
	// ring. Empty for items submitted outside a sweep.
	SweepID string `json:"sweep_id,omitempty"`
}

// CompleteRequest reports one finished execution. On success BlobSum names
// the result blob already PUT into the coordinator's CAS; on failure Error
// carries the message and Transient whether the engine classified the
// failure as retryable (the coordinator requeues transient failures within
// the item's requeue budget).
type CompleteRequest struct {
	Node      string `json:"node"`
	ID        string `json:"id"`
	BlobSum   string `json:"blob_sum,omitempty"`
	Error     string `json:"error,omitempty"`
	Transient bool   `json:"transient,omitempty"`
}

// SweepStatus summarizes a sweep's progress.
type SweepStatus struct {
	ID      string   `json:"id"`
	Total   int      `json:"total"`
	Done    int      `json:"done"`
	Failed  int      `json:"failed"`
	Pending int      `json:"pending"`
	JobIDs  []string `json:"job_ids"`
}

// NodeStatus is one worker's row in ClusterStatus: the coordinator's
// lease-table view joined with the worker's self-reported heartbeat
// counters. Age fields are relative to the coordinator clock at snapshot
// time.
type NodeStatus struct {
	Node          string `json:"node"`
	Addr          string `json:"addr,omitempty"`
	BeatAgeMS     int64  `json:"beat_age_ms"`
	Inflight      int    `json:"inflight"`
	EngQueued     int64  `json:"eng_queued"`
	EngRunning    int64  `json:"eng_running"`
	ShardsInUse   int64  `json:"shards_in_use"`
	ShardCapacity int    `json:"shard_capacity"`
	// OldestLeaseAgeMS / OldestLeaseJob identify the node's slowest
	// in-flight job — the straggler signal `rsr top` sorts by.
	OldestLeaseAgeMS int64  `json:"oldest_lease_age_ms,omitempty"`
	OldestLeaseJob   string `json:"oldest_lease_job,omitempty"`
}

// ClusterStatus is the GET /v1/status payload: the coordinator's snapshot of
// the whole fabric, built from its own state and workers' heartbeats, polled
// by `rsr top`.
type ClusterStatus struct {
	Draining bool `json:"draining"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Done     int  `json:"done"`
	Failed   int  `json:"failed"`
	Sweeps   int  `json:"sweeps"`
	// Journal fsync latency summary (zero when the coordinator runs without
	// a journal): count of fsyncs, their mean, and an upper bound on the
	// 99th percentile from the histogram's bucket layout.
	JournalFsyncs      uint64       `json:"journal_fsyncs,omitempty"`
	JournalFsyncMeanMS float64      `json:"journal_fsync_mean_ms,omitempty"`
	JournalFsyncP99MS  float64      `json:"journal_fsync_p99_ms,omitempty"`
	Nodes              []NodeStatus `json:"nodes"`
}
