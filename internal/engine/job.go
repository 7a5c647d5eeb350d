// Package engine schedules independent simulation runs over a bounded
// worker pool with a content-addressed result cache.
//
// A Job names one deterministic simulation — a workload, machine, sampling
// regimen (and, optionally, the named strategy that spends it), total length,
// seed, and warm-up spec — and hashes to a canonical content address.
// Submitting a job returns a Ticket; identical jobs submitted concurrently
// are single-flighted (the second submitter waits for the first result), and
// finished results are cached in memory and, when a cache directory is
// configured, on disk as JSON, so repeated sweeps skip already-computed runs. The engine exposes a polling Stats
// snapshot and a streaming Event subscription for progress reporting.
//
// Because every job is deterministic in its inputs (see the concurrency
// contract in package sampling), results assembled in submission order are
// identical to a sequential run regardless of worker count.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rsr/internal/cas"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// JobKind selects the simulation mode of a job.
type JobKind string

// Job kinds.
const (
	// JobSampled is a cluster-sampled run: sampling.RunSampled, or the
	// sampling strategy Job.Strategy names.
	JobSampled JobKind = "sampled"
	// JobFull is a complete detailed simulation (sampling.RunFull).
	JobFull JobKind = "full"
)

// Job describes one deterministic simulation run. Two jobs with equal
// identity fields produce byte-identical results, which is what makes
// content-addressed caching sound.
type Job struct {
	Kind     JobKind
	Workload string // a named workload (workload.ByName)
	Machine  sampling.MachineConfig
	Total    uint64
	// Sampled-only fields (zero for JobFull).
	Regimen sampling.Regimen
	Seed    int64
	Warmup  warmup.Spec
	// Strategy names the registered sampling strategy (regimen.ByName) that
	// spends the Regimen's budget; the result is then a regimen.Outcome. Empty,
	// or regimen.PaperDesign, is the paper's design run by
	// sampling.RunSampledOpts: both spellings are one job (Job.strategy), and
	// an empty name is absent from the hash.
	Strategy string `json:"Strategy,omitempty"`
	// Timeout bounds this job's execution (0 = the engine default). It is
	// scheduling policy, not identity: it does not enter the hash. A job
	// that runs past its deadline fails with ErrDeadline.
	Timeout time.Duration `json:"Timeout,omitempty"`
	// Shards runs a sampled job's regions on this many run-ahead producers
	// (0 or 1 = one), unless it replays a trace. The sharded run is
	// byte-identical to the sequential one (sampling.Options.Shards), so
	// like Timeout it is scheduling policy, not identity: jobs differing
	// only in Shards share one cache entry.
	Shards int `json:"Shards,omitempty"`
}

// jobIdentity is the canonical hashed form of a Job. HashVersion must be
// bumped whenever the identity layout or the semantics of a simulation
// change incompatibly, invalidating old cache entries.
type jobIdentity struct {
	HashVersion int
	Kind        JobKind
	Workload    string
	Machine     sampling.MachineConfig
	Total       uint64
	Regimen     sampling.Regimen
	Seed        int64
	Warmup      warmup.Spec
	Strategy    string `json:",omitempty"`
}

// Version 4: a strategy Outcome keeps the walker's per-cluster records
// (Clusters), and a job naming regimen.PaperDesign hashes as the unnamed one.
// Version 3: the machine's bus, prefetch and LSQ switches and the warm-up
// spec's counter-inference switch left the identity. Version 2: a reverse
// spec's Percent selects the newest Percent of the region's instructions, not
// of its log records (1 was the layout's first). TestJobHashPinned holds the
// hash of one job to a literal, so a bump — or an identity change without
// one — shows up there.
const hashVersion = 4

// Hash returns the job's content address: hex SHA-256 of the canonical
// JSON encoding of its identity fields (Timeout excluded).
func (j Job) Hash() string {
	id := jobIdentity{
		HashVersion: hashVersion,
		Kind:        j.Kind,
		Workload:    j.Workload,
		Machine:     j.Machine,
		Total:       j.Total,
		Regimen:     j.Regimen,
		Seed:        j.Seed,
		Warmup:      j.Warmup,
		Strategy:    j.strategy(),
	}
	b, err := json.Marshal(id)
	if err != nil {
		// Identity fields are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("engine: job hash: %v", err))
	}
	return cas.Sum(b)
}

// strategy is the registered strategy the job runs: "" for the paper's
// design under either of its spellings. Hash, Label, Validate and runJob read
// the field through it alone.
func (j Job) strategy() string {
	if j.Strategy == regimen.PaperDesign {
		return ""
	}
	return j.Strategy
}

// checkpointIdentity is the canonical hashed form of a sampled job's
// pre-pass checkpoint chain: exactly the fields the chain is a pure
// function of. Machine and warm-up method are deliberately absent — the
// pre-pass is pure functional simulation, so jobs differing only in those
// share one chain. Shards enters because deltas are captured at shard
// boundaries.
type checkpointIdentity struct {
	Version  int
	Workload string
	Total    uint64
	Regimen  sampling.Regimen
	Seed     int64
	Shards   int
}

const checkpointVersion = 1

// CheckpointKey returns the identity key of the job's pre-pass checkpoint
// chain, used to share chains across jobs and nodes through a
// sampling.CheckpointStore. Only meaningful for sharded sampled jobs.
func (j Job) CheckpointKey() string {
	b, err := json.Marshal(checkpointIdentity{
		Version:  checkpointVersion,
		Workload: j.Workload,
		Total:    j.Total,
		Regimen:  j.Regimen,
		Seed:     j.Seed,
		Shards:   j.Shards,
	})
	if err != nil {
		panic(fmt.Sprintf("engine: checkpoint key: %v", err))
	}
	return "ckpt-" + cas.Sum(b)
}

// TraceKey returns the key of a sampled job's functional trace
// (sampling.Trace): what it is a pure function of. The warm-up spec, the
// shard count and every machine field but the L1I line size are absent, so
// such jobs share a trace.
func (j Job) TraceKey() string {
	b, err := json.Marshal(struct {
		Version      int // bumped when a trace's contents change
		Workload     string
		Total        uint64
		Regimen      sampling.Regimen
		Seed         int64
		L1ILineBytes int
	}{1, j.Workload, j.Total, j.Regimen, j.Seed, j.Machine.Hier.L1I.LineBytes})
	if err != nil {
		panic(fmt.Sprintf("engine: trace key: %v", err))
	}
	return "trace-" + cas.Sum(b)
}

// ShardSlots reports how many shard goroutines an execution of this job
// occupies: its shard count for a parallel sampled job, 1 for sequential
// and full runs. It is the unit of the engine's ShardsInUse gauge.
func (j Job) ShardSlots() int64 {
	if j.Kind == JobSampled && j.Shards > 1 {
		return int64(j.Shards)
	}
	return 1
}

// Label renders a short human-readable description of the job.
func (j Job) Label() string {
	if j.Kind == JobFull {
		return fmt.Sprintf("full/%s", j.Workload)
	}
	if s := j.strategy(); s != "" {
		return fmt.Sprintf("%s/%s/%s", j.Workload, s, j.Warmup.Label())
	}
	return fmt.Sprintf("%s/%s", j.Workload, j.Warmup.Label())
}

// Validate checks that the job is runnable.
func (j Job) Validate() error {
	if j.Kind != JobSampled && j.Kind != JobFull {
		return fmt.Errorf("engine: unknown job kind %q", j.Kind)
	}
	if j.Total == 0 {
		return errors.New("engine: job total must be positive")
	}
	if _, err := workload.ByName(j.Workload); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if j.Kind == JobSampled {
		// Whether a named strategy's budget fits the workload is the strategy's
		// to say: SimPoint short of intervals selects fewer (Figure 9's 10M).
		if s := j.strategy(); s == "" {
			if err := j.Regimen.Validate(j.Total); err != nil {
				return err
			}
		} else if _, err := regimen.ByName(s); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		if err := j.Warmup.Validate(); err != nil {
			return fmt.Errorf("engine: job Warmup: %w", err)
		}
	}
	return nil
}
