package engine

import (
	"fmt"
	"time"

	"rsr/internal/regimen"
	"rsr/internal/sampling"
)

// Result is the outcome of one job: exactly one of Sampled, Outcome or Full
// is set, matching the job's kind and whether it names a strategy. Results
// are immutable once published — callers (and cache readers) must not mutate
// them, since single-flighted and cached submissions share the same value.
type Result struct {
	// JobHash is the content address of the job that produced this result.
	JobHash string
	// Kind echoes the job kind.
	Kind JobKind
	// Sampled holds the measurement of a JobSampled that names no strategy.
	Sampled *sampling.RunResult `json:",omitempty"`
	// Outcome holds the strategy run of a JobSampled that names one, and
	// Selection how much of Outcome.Elapsed its selection pass took (SimPoint's
	// offline profile, which Figure 9 leaves out of simulation time).
	Outcome   *regimen.Outcome `json:",omitempty"`
	Selection time.Duration    `json:",omitempty"`
	// Full holds the detailed simulation for JobFull.
	Full *sampling.FullResult `json:",omitempty"`
	// Wall is the engine-measured execution wall-clock of the run that
	// produced the result (zero-cost for cache hits, which reuse the
	// original run's value).
	Wall time.Duration
}

// IPC returns the job's IPC figure: the sampled IPC estimate for sampled
// jobs, the true IPC for full jobs.
func (r *Result) IPC() float64 {
	switch {
	case r.Sampled != nil:
		return r.Sampled.IPCEstimate()
	case r.Outcome != nil:
		return r.Outcome.Estimate.IPC
	case r.Full != nil:
		return r.Full.Result.IPC()
	}
	return 0
}

// Verify checks that r is a result of the job whose hash is hash: its
// JobHash, its kind, and that the payload of that kind is set. Every result
// that arrives from outside the process — a disk cache entry, a worker's
// completion report, a journal replay, a coordinator's answer — goes through
// it, since bytes that decode are not yet a result that can be served.
func (r *Result) Verify(hash string) error {
	switch {
	case r == nil:
		return fmt.Errorf("engine: no result for job %.12s", hash)
	case r.JobHash != hash:
		return fmt.Errorf("engine: a result of job %.12s, not %.12s", r.JobHash, hash)
	case r.Kind == JobSampled && r.Sampled == nil && r.Outcome == nil,
		r.Kind == JobFull && r.Full == nil:
		return fmt.Errorf("engine: %s result of job %.12s carries no payload", r.Kind, hash)
	case r.Kind != JobSampled && r.Kind != JobFull:
		return fmt.Errorf("engine: result of job %.12s has unknown kind %q", hash, r.Kind)
	}
	return nil
}
