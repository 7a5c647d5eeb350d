package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rsr/internal/cas"
	"rsr/internal/engine"
	"rsr/internal/obs"
)

// The journal is the coordinator's write-ahead log: every scheduling
// mutation — submit, tag, lease, complete, requeue, reap — is appended as
// one JSONL record and fsync'd before the coordinator acts on it, so a
// coordinator that dies (kill -9 included) can replay the file and resume
// the sweep instead of losing it. The paper's move — reconstruct expensive
// state from a compact log instead of keeping it — applied to the fabric's
// control plane.
//
// On disk a journal directory holds:
//
//	snapshot.json   periodic compaction of the full scheduler state,
//	                written atomically (temp + fsync + rename, the same
//	                discipline as internal/cas blobs)
//	journal.jsonl   records appended since the snapshot
//	tail-quarantine-*  bytes cut off a corrupt or torn journal tail,
//	                preserved for forensics, never replayed
//
// Replay loads the snapshot (if any) and folds the journal over it. A line
// that does not parse — a torn final write from a real crash, or scribbled
// bytes — ends the replay at the last valid record: the tail is moved to a
// quarantine file and the journal truncated, so the next append continues
// from a clean prefix. Everything the tail could have carried is recovered
// by weaker means (an unjournaled lease is re-run; an
// unjournaled completion is re-reported by the worker or recomputed), so
// quarantining costs duplicate work at most, never correctness.

// journalFile and snapshotFile are the fixed member names of a journal
// directory.
const (
	journalFile  = "journal.jsonl"
	snapshotFile = "snapshot.json"
)

// compactEvery is the default record count between snapshot compactions.
const compactEvery = 4096

// Record kinds. Kept to the scheduling verbs: node liveness is not
// journaled (workers re-register through heartbeats within one timeout).
const (
	recSubmit = "submit"
	// recTag is what a coalesced resubmission under a tag leaves; a fresh
	// one's membership rides on its submit record.
	recTag      = "tag"
	recLease    = "lease"
	recComplete = "complete"
	recRequeue  = "requeue"
	recReap     = "reap"
)

// journalRecord is one JSONL line. Fields are a union across kinds; the
// zero fields of a kind are omitted.
type journalRecord struct {
	Kind string `json:"kind"`
	// ID is the item's content hash (submit/tag/lease/complete/requeue).
	ID string `json:"id,omitempty"`
	// Job rides on submit records.
	Job *engine.Job `json:"job,omitempty"`
	// Node names the leasing node (lease), the reporting node (complete), or
	// the reaped node (reap).
	Node string `json:"node,omitempty"`
	// BlobSum (success) or Error (failure) rides on complete records.
	BlobSum string `json:"blob_sum,omitempty"`
	Error   string `json:"error,omitempty"`
	// Sweep is the client's sweep tag (X-Sweep-ID) and so the sweep's key:
	// the sweep a submit or tag record makes the item a member of.
	Sweep string `json:"sweep,omitempty"`
}

// snapItem is one item's durable state inside a snapshot.
type snapItem struct {
	ID       string     `json:"id"`
	Job      engine.Job `json:"job"`
	Sweep    string     `json:"sweep,omitempty"`
	State    string     `json:"state"` // queued, running, done, failed
	Requeues int        `json:"requeues,omitempty"`
	Holder   string     `json:"holder,omitempty"` // running only
	BlobSum  string     `json:"blob_sum,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// snapshot is the compacted scheduler state; Sweeps maps tag to members.
type snapshot struct {
	Sweeps map[string][]string `json:"sweeps,omitempty"`
	Items  []snapItem          `json:"items,omitempty"`
}

// ReplayItem is one item's state as reconstructed from the journal, handed
// to the coordinator at startup.
type ReplayItem struct {
	ID       string
	Job      engine.Job
	Sweep    string // distributed trace tag, "" when untraced
	State    string // queued, running, done, failed
	Requeues int
	Holder   string // the node that held its lease at crash time (running only)
	BlobSum  string // done: the accepted result blob
	ErrMsg   string // failed: the terminal error
}

// Replay is the scheduler state reconstructed by OpenJournal.
type Replay struct {
	// Sweeps maps a sweep's tag to its members in the order they joined.
	Sweeps map[string][]string
	member map[[2]string]bool // (key, item) pairs already in Sweeps
	Items  []ReplayItem
	// Quarantined is the number of tail bytes cut off and preserved because
	// they did not parse (a torn final write, or corruption).
	Quarantined int
	// Records is how many journal records (snapshot items excluded) were
	// replayed.
	Records int
}

// Journal is the coordinator's append-only write-ahead log. Appends are
// serialized and fsync'd; Compact atomically replaces the snapshot and
// truncates the record file. All methods are safe for concurrent use, but
// the coordinator calls them under its own mutex so journal order always
// matches state-mutation order.
type Journal struct {
	dir string
	log *slog.Logger

	f       *os.File
	pending int // records since the last compaction
	replay  *Replay

	// Metric hooks, installed by the coordinator (nil-safe before then).
	fsyncSec *obs.Histogram
	records  *obs.CounterVec
}

// OpenJournal opens (creating if absent) the journal directory, replays the
// snapshot and record file into a Replay, quarantines any unparseable tail,
// and leaves the record file open for appending. The caller hands the
// journal to NewCoordinator via CoordinatorOptions.Journal.
func OpenJournal(dir string, log *slog.Logger) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("cluster: journal needs a directory")
	}
	if log == nil {
		log = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: journal dir: %w", err)
	}
	j := &Journal{dir: dir, log: log}
	if err := j.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: open journal: %w", err)
	}
	j.f = f
	j.pending = j.replay.Records
	return j, nil
}

// Replay returns the state reconstructed at open time.
func (j *Journal) Replay() *Replay { return j.replay }

// instrument installs the coordinator's metric hooks.
func (j *Journal) instrument(fsyncSec *obs.Histogram, records *obs.CounterVec) {
	j.fsyncSec, j.records = fsyncSec, records
}

// append durably logs one record: marshal, write, fsync, then return. An
// I/O failure is logged and swallowed — the coordinator prefers staying
// available with a shorter journal over refusing all work; the un-journaled
// mutation is recovered after a crash by requeue, re-report, or
// recompute, exactly like a quarantined tail.
func (j *Journal) append(rec journalRecord) {
	if j == nil || j.f == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		j.log.Error("journal marshal failed", "kind", rec.Kind, "err", err)
		return
	}
	b = append(b, '\n')
	start := time.Now()
	if _, err := j.f.Write(b); err != nil {
		j.log.Error("journal append failed", "kind", rec.Kind, "err", err)
		return
	}
	if err := j.f.Sync(); err != nil {
		j.log.Error("journal fsync failed", "kind", rec.Kind, "err", err)
		return
	}
	j.fsyncSec.Observe(time.Since(start).Seconds())
	j.records.With(rec.Kind).Inc()
	j.pending++
}

// shouldCompact reports whether enough records accumulated since the last
// snapshot to be worth folding in.
func (j *Journal) shouldCompact() bool {
	return j != nil && j.f != nil && j.pending >= compactEvery
}

// compact atomically replaces the snapshot with snap and truncates the
// record file: the snapshot is written with temp+fsync+rename first, so a
// crash between the two steps replays the new snapshot plus a (harmlessly
// redundant) journal prefix, never a gap.
func (j *Journal) compact(snap snapshot) error {
	if j == nil || j.f == nil {
		return nil
	}
	b, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("cluster: snapshot marshal: %w", err)
	}
	if err := cas.WriteFileAtomic(filepath.Join(j.dir, snapshotFile), b); err != nil {
		return fmt.Errorf("cluster: snapshot write: %w", err)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("cluster: journal truncate: %w", err)
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return fmt.Errorf("cluster: journal seek: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("cluster: journal sync: %w", err)
	}
	j.pending = 0
	j.log.Info("journal compacted", "dir", j.dir, "items", len(snap.Items))
	return nil
}

// close releases the record file. Used by the coordinator's Close (after a
// final compaction) and Crash (abruptly, like a dying process).
func (j *Journal) close() {
	if j == nil || j.f == nil {
		return
	}
	j.f.Close()
	j.f = nil
}

// load reads the snapshot and folds the record file over it, quarantining
// an unparseable tail.
func (j *Journal) load() error {
	items := make(map[string]*ReplayItem)
	rp := &Replay{Sweeps: make(map[string][]string), member: make(map[[2]string]bool)}

	if b, err := os.ReadFile(filepath.Join(j.dir, snapshotFile)); err == nil {
		var snap snapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			// A torn snapshot cannot happen from a crash (atomic rename);
			// scribbled bytes are a disk problem worth failing loudly on.
			return fmt.Errorf("cluster: corrupt snapshot %s: %w",
				filepath.Join(j.dir, snapshotFile), err)
		}
		for _, si := range snap.Items {
			items[si.ID] = &ReplayItem{
				ID: si.ID, Job: si.Job, Sweep: si.Sweep,
				State: si.State, Requeues: si.Requeues, Holder: si.Holder,
				BlobSum: si.BlobSum, ErrMsg: si.Error,
			}
		}
		for key, ids := range snap.Sweeps {
			for _, id := range ids {
				rp.join(items, key, id)
			}
		}
	}

	path := filepath.Join(j.dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cluster: read journal: %w", err)
	}
	valid := 0 // byte offset of the last fully parsed record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Kind == "" {
			break
		}
		j.fold(items, rp, rec)
		rp.Records++
		valid += len(line) + 1
	}
	if valid < len(data) {
		tail := data[valid:]
		rp.Quarantined = len(tail)
		qpath := quarantinePath(j.dir)
		if err := cas.WriteFileAtomic(qpath, tail); err != nil {
			return fmt.Errorf("cluster: quarantine journal tail: %w", err)
		}
		if err := cas.WriteFileAtomic(path, data[:valid]); err != nil {
			return fmt.Errorf("cluster: truncate journal: %w", err)
		}
		j.log.Warn("journal tail quarantined",
			"bytes", len(tail), "replayed_records", rp.Records, "quarantine", qpath)
	}

	for _, it := range items {
		rp.Items = append(rp.Items, *it)
	}
	sort.Slice(rp.Items, func(a, b int) bool { return rp.Items[a].ID < rp.Items[b].ID })
	rp.member = nil // only the fold needed it
	j.replay = rp
	return nil
}

// fold applies one record to the replay state. Unknown item references
// (lost to an earlier quarantined tail, or written by an older coordinator
// that pruned finished items) are skipped, sweep memberships included: the
// journal is a log of decisions, not an authority that can conjure work
// without its submit record.
func (j *Journal) fold(items map[string]*ReplayItem, rp *Replay, rec journalRecord) {
	switch rec.Kind {
	case recSubmit:
		if rec.Job == nil || rec.ID == "" {
			return
		}
		if _, ok := items[rec.ID]; !ok {
			items[rec.ID] = &ReplayItem{
				ID: rec.ID, Job: *rec.Job, Sweep: rec.Sweep,
				State: "queued",
			}
		}
		rp.join(items, rec.Sweep, rec.ID)
	case recTag:
		if it := items[rec.ID]; it != nil && it.Sweep == "" {
			it.Sweep = rec.Sweep // the untagged original adopts the tag, as it did live
		}
		rp.join(items, rec.Sweep, rec.ID)
	case recLease:
		it := items[rec.ID]
		if it == nil || it.State == "done" || it.State == "failed" {
			return
		}
		it.State, it.Holder = "running", rec.Node
	case recComplete:
		it := items[rec.ID]
		if it == nil {
			return
		}
		it.Holder = ""
		if rec.BlobSum != "" {
			it.State, it.BlobSum = "done", rec.BlobSum
		} else {
			it.State, it.ErrMsg = "failed", rec.Error
		}
	case recRequeue:
		it := items[rec.ID]
		if it == nil || it.State == "done" || it.State == "failed" {
			return
		}
		it.State, it.Holder = "queued", ""
		it.Requeues++
	case recReap:
		for _, it := range items {
			if it.State == "running" && it.Holder == rec.Node {
				it.Holder = ""
			}
		}
	}
}

// join makes item id a member of the sweep under key, once: a snapshot and
// the records after it may both say so. An id with no item joins nothing.
func (rp *Replay) join(items map[string]*ReplayItem, key, id string) {
	if key == "" || items[id] == nil || rp.member[[2]string{key, id}] {
		return
	}
	rp.member[[2]string{key, id}] = true
	rp.Sweeps[key] = append(rp.Sweeps[key], id)
}

// quarantinePath picks an unused tail-quarantine file name.
func quarantinePath(dir string) string {
	for i := 0; ; i++ {
		p := filepath.Join(dir, fmt.Sprintf("tail-quarantine-%d", i))
		if _, err := os.Lstat(p); os.IsNotExist(err) {
			return p
		}
	}
}
