// Package sampling orchestrates cluster-sampled simulation (Figure 1 of the
// paper): hot cycle-accurate simulation of randomly placed clusters, cold
// functional simulation between them, and a pluggable warm-up method that
// observes the skipped stream and repairs microarchitectural state before
// each cluster.
//
// # Concurrency contract
//
// RunSampled, RunSampledOpts, RunRegions, and RunFull build a fresh
// Hierarchy, predictor Unit, timing model, and functional simulator for
// every call and share no mutable state between calls; the input Program is
// read-only. Any number of runs may therefore execute concurrently (the
// engine package relies on this), and because every run is deterministic in
// its inputs, concurrent and sequential execution produce identical results.
// TestRunSampledFreshStatePerCall asserts this contract. A run's own
// goroutine, its run-ahead producer, ends before it returns.
package sampling

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/mem"
	"rsr/internal/obs"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/stats"
	"rsr/internal/warmup"
)

// Regimen defines a sampling design: the cluster (sampling-unit) size in
// instructions and how many clusters make up the sample.
type Regimen struct {
	ClusterSize uint64
	NumClusters int
}

// Validate checks the regimen against a total workload length.
func (r Regimen) Validate(total uint64) error {
	if r.ClusterSize == 0 || r.NumClusters <= 0 {
		return errors.New("sampling: cluster size and count must be positive")
	}
	// ClusterSize <= floor(total/NumClusters) is NumClusters*ClusterSize <=
	// total without the product, which a hostile ClusterSize would wrap. It
	// also says every stratum fits its cluster, so no separate stratum check
	// is needed (TestRegimenValidateBoundaries pins the boundaries).
	if r.ClusterSize > total/uint64(r.NumClusters) {
		return fmt.Errorf("sampling: %d clusters of %d exceed workload length %d",
			r.NumClusters, r.ClusterSize, total)
	}
	return nil
}

// Positions returns the cluster start positions (dynamic instruction
// indices), sorted ascending. Placement is stratified-uniform: the workload
// is divided into NumClusters equal strata and each cluster start is drawn
// uniformly within its stratum, which matches the paper's uniformly random
// starting positions while guaranteeing ordering and non-overlap.
func Positions(total uint64, r Regimen, seed int64) ([]uint64, error) {
	if err := r.Validate(total); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	stratum := total / uint64(r.NumClusters)
	starts := make([]uint64, r.NumClusters)
	for i := range starts {
		slack := stratum - r.ClusterSize
		off := uint64(0)
		if slack > 0 {
			off = uint64(rng.Int63n(int64(slack + 1)))
		}
		starts[i] = uint64(i)*stratum + off
	}
	return starts, nil
}

// Regions returns the regimen's clusters as the walker's regions: one of
// ClusterSize instructions at every start Positions draws.
func (r Regimen) Regions(total uint64, seed int64) ([]Region, error) {
	starts, err := Positions(total, r, seed)
	if err != nil {
		return nil, err
	}
	regions := make([]Region, len(starts))
	for i, start := range starts {
		regions[i] = Region{Start: start, Size: r.ClusterSize}
	}
	return regions, nil
}

// MachineConfig bundles the simulated machine.
type MachineConfig struct {
	CPU  ooo.Config
	Hier mem.HierarchyConfig
	Pred bpred.Config
}

// DefaultMachine returns the paper's machine (§4).
func DefaultMachine() MachineConfig {
	return MachineConfig{
		CPU:  ooo.DefaultConfig(),
		Hier: mem.DefaultHierarchyConfig(),
		Pred: bpred.DefaultConfig(),
	}
}

// ClusterStat is the measurement taken from one cluster.
type ClusterStat struct {
	Start  uint64 // dynamic instruction index of the cluster start
	Result ooo.Result
}

// CPI returns the cluster's cycles per instruction, the sample every
// estimator aggregates, and false for a cluster that retired nothing (the
// workload ended at its start): it carries no timing information, so every
// estimator leaves it out rather than let a zero CPI or a NaN IPC into the
// aggregate.
func (c ClusterStat) CPI() (float64, bool) {
	if c.Result.Instructions == 0 {
		return 0, false
	}
	return float64(c.Result.Cycles) / float64(c.Result.Instructions), true
}

// RunResult summarizes one sampled simulation.
type RunResult struct {
	Method   string
	Clusters []ClusterStat
	// Elapsed is the wall-clock duration of the whole sampled run.
	Elapsed time.Duration
	// Work is the warm-up method's state-operation count.
	Work warmup.Work
	// FuncInstructions counts functionally executed (skipped) instructions.
	FuncInstructions uint64
	// HotInstructions counts instructions retired by the timing model.
	HotInstructions uint64
}

// CPIs returns the per-cluster cycles-per-instruction sample, without the
// clusters that retired nothing (ClusterStat.CPI), so it may be shorter than
// Clusters. With equal-size clusters the mean CPI is the unbiased estimator
// of the population CPI, so estimates aggregate in CPI space (as SMARTS does)
// and convert to IPC at the end; an arithmetic mean of per-cluster IPC would
// overweight fast phases on workloads with high phase variance.
func (r *RunResult) CPIs() []float64 {
	out := make([]float64, 0, len(r.Clusters))
	for _, c := range r.Clusters {
		if cpi, ok := c.CPI(); ok {
			out = append(out, cpi)
		}
	}
	return out
}

// IPCEstimate returns the sampled IPC estimate, 1 / mean cluster CPI.
func (r *RunResult) IPCEstimate() float64 {
	m := stats.Mean(r.CPIs())
	if m == 0 {
		return 0
	}
	return 1 / m
}

// CI returns the 95% confidence interval of the mean cluster CPI.
func (r *RunResult) CI() stats.Interval { return stats.CI95(r.CPIs()) }

// ConfidenceContains reports whether the 95% confidence interval covers the
// true IPC (the paper's confidence test), evaluated in CPI space where the
// interval is constructed.
func (r *RunResult) ConfidenceContains(trueIPC float64) bool {
	if trueIPC == 0 {
		return false
	}
	return r.CI().Contains(1 / trueIPC)
}

// RunSampled executes the sampled simulation of program p under the given
// machine, regimen, and warm-up specification. The same seed produces the
// same cluster positions (and therefore the same sampling bias) for every
// method, as the paper's methodology requires.
func RunSampled(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, spec warmup.Spec) (*RunResult, error) {
	return RunSampledOpts(p, m, reg, total, seed, spec, Options{})
}

// ErrCanceled is returned when a run is stopped through Options.Cancel
// before completing.
var ErrCanceled = errors.New("sampling: run canceled")

// Options tunes the sampled-run controller beyond the warm-up method.
type Options struct {
	// Cancel, when non-nil, aborts the run with ErrCanceled once the channel
	// is closed. Runs poll it once per instruction batch, the timing model
	// every 2^16 loop iterations (ooo.Stopper), and sampled runs additionally
	// at cluster boundaries, so results of uncanceled runs are unaffected.
	Cancel <-chan struct{}
	// Shards is how many run-ahead producers a run once split its regions
	// across.
	//
	// Deprecated: ignored; every run has one producer. Kept until ROADMAP 7(b) retires skip-heavy-sharded.
	Shards int
	// Traces, when non-nil alongside a non-empty TraceKey, lets a run replay
	// its placement's functional trace instead of executing (Trace), and a
	// reverse run cut the trace's reverse plan instead of planning its
	// windows (TracePlan). It is execution policy, never identity.
	Traces   TraceStore
	TraceKey string
	// Instr, when non-nil, streams per-phase instruction counts, durations,
	// warm-up work deltas, and machine event counters into its registry.
	// Tracer, when non-nil, records one span per cluster phase (cold-skip,
	// reverse-scan — plan apply included — and hot-sim) on a track of its
	// own. Both default off; recording happens at phase boundaries — never per
	// instruction — so enabling them does not perturb results
	// (TestInstrumentedRunIdentical pins this) and the simulation hot loops
	// stay allocation-free.
	Instr  *Instruments
	Tracer *obs.Tracer
}

// Canceled reports whether the cancel channel (if any) has been closed.
func (o Options) Canceled() bool {
	if o.Cancel == nil {
		return false
	}
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}

// RunSampledOpts is RunSampled with controller options: the regimen's
// placement handed to the region walker. The spec is the caller's, so it is
// checked here: out of range, Percent would wrap or clamp.
func RunSampledOpts(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, spec warmup.Spec, opts Options) (*RunResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sampling: %w", err)
	}
	regions, err := reg.Regions(total, seed)
	if err != nil {
		return nil, err
	}
	return RunRegions(p, m, regions, spec.New, opts)
}

// FullResult is a complete detailed simulation — the paper's "true IPC"
// baseline.
type FullResult struct {
	Result  ooo.Result
	Elapsed time.Duration
}

// RunFull simulates the first `total` instructions of p cycle-accurately.
func RunFull(p *prog.Program, m MachineConfig, total uint64) (FullResult, error) {
	return RunFullOpts(p, m, total, Options{})
}

// RunFullOpts is RunFull with controller options (Options.Cancel, Instr and
// Tracer apply). The run is one region from the start with no cold phase,
// fed by the run-ahead feed, so functional execution runs on the producer's
// goroutine while the timing model measures. The cancel poll runs once per
// instruction batch, so an uncanceled run is identical to RunFull.
func RunFullOpts(p *prog.Program, m MachineConfig, total uint64, opts Options) (FullResult, error) {
	if err := m.CPU.Validate(); err != nil {
		return FullResult{}, fmt.Errorf("sampling: full run: %w", err)
	}
	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	sim := ooo.New(m.CPU, hier, unit)
	ro := newRunObs(opts.Instr, opts.Tracer, "full", "")
	begin := time.Now()
	method := warmup.Spec{Kind: warmup.KindNone}.New(hier, unit)
	f := newAheadFeed(p, []Region{{Size: total}}, method, nil, nil, &opts)
	defer f.stop()
	t0 := ro.begin()
	err := f.ingest(method) // no cold phase: it takes the first hot batch
	var r ooo.Result
	if err == nil {
		r = sim.SimulateSource(total, f)
		err = cmp.Or(f.err(), sim.Err())
	}
	if err != nil {
		return FullResult{}, fmt.Errorf("sampling: full run: %w", err)
	}
	ro.fullDone(t0, r.Instructions)
	ro.runDone("full", hier, unit)
	return FullResult{Result: r, Elapsed: time.Since(begin)}, nil
}

var _ bpred.Predictor = (*bpred.Unit)(nil)
