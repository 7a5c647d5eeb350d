// Package regimen turns the sampling design into a pluggable strategy: a
// Strategy owns region selection (which parts of the workload are simulated
// in detail, and from what profiling signal), the warm-up policy applied
// between them, and the IPC estimator that turns the measurements into a
// point estimate with a confidence interval.
//
// Three strategies are registered, and a fourth name is accepted:
//
//   - stratified-uniform (PaperDesign): the paper's design — stratified-uniform
//     placement, mean-cluster-CPI estimator. It is not a Strategy: the
//     sampling package runs it (sampling.RunSampledOpts), and an engine job
//     that names it is the unnamed job, one cache entry under either spelling.
//   - simpoint: the SimPoint baseline — BBV profiling and k-means selection
//     (package simpoint), weighted-IPC estimate. Numbers pinned against the
//     deleted standalone estimate path by TestSimPointByteIdentical.
//   - ranked-set: ranked-set sampling (arXiv 2603.22598). A cheap functional
//     pass scores m*n candidate regions with a sketch-cache miss count; each
//     consecutive group of m candidates contributes the member holding a
//     rotating order statistic, spreading the n detailed regions across the
//     statistic's distribution.
//   - two-phase-stratified: two-phase stratified sampling (arXiv
//     2603.22605). BBV profiling + k-means stratify the workload by phase; a
//     proportional pilot measures per-stratum variance, and the second-phase
//     budget is allocated by Neyman allocation (n_h ∝ W_h·S_h) before the
//     stratified estimator combines both phases.
//
// A strategy is a plan plus an estimator. Select makes the plan; Run hands it
// to the package's one runner (runner.go), which measures the planned regions
// with the shared region walker, applies the strategy's estimator — a pure
// function of the measurements (estimators.go) — and assembles and records
// the Outcome. Params.Options therefore means the same thing for all of them
// — cancellation, phase metrics and spans — and every Outcome carries
// the walker's per-cluster measurements, work counters and instruction counts.
//
// Every strategy is deterministic in (program, machine, regimen, total,
// seed, warmup): like the sampling package, running one is a pure function
// of its inputs.
package regimen

import (
	"fmt"
	"time"

	"rsr/internal/prog"
	"rsr/internal/sampling"
	"rsr/internal/stats"
	"rsr/internal/warmup"
)

// Params carries the inputs shared by every strategy. Regimen doubles as the
// detailed-simulation budget: ClusterSize instructions per region,
// NumClusters regions in total — so every strategy spends the same hot
// budget as the paper's design and comparisons are work-for-work.
type Params struct {
	Program *prog.Program
	Machine sampling.MachineConfig
	Regimen sampling.Regimen
	Total   uint64
	Seed    int64
	Warmup  warmup.Spec
	// Options is handed to the region walker on every measurement pass:
	// Cancel (also polled by the functional profiling passes), and the
	// per-cluster phase Instr and Tracer. Leave Traces and TraceKey unset: a
	// trace is keyed by the regimen's own placement, and a strategy's passes
	// place their regions elsewhere.
	Options sampling.Options
	// Instr, when non-nil, records per-strategy selection and allocation
	// metrics. Nil disables recording; results are identical either way.
	Instr *Instruments
}

// Region is one detailed-simulation region a strategy selected.
type Region struct {
	// Start is the dynamic instruction index where detailed simulation
	// begins; Size is its length in instructions.
	Start, Size uint64
	// Weight is the region's estimator weight (1 when the estimator weighs
	// regions equally).
	Weight float64
	// Stratum is the phase/stratum id the region was drawn from, or -1 when
	// the strategy does not stratify.
	Stratum int
}

// Plan is a strategy's selection decision: the regions to simulate in
// detail, in execution order.
type Plan struct {
	Regions []Region
	// Candidates is how many regions selection considered (equal to
	// len(Regions) for strategies that place rather than choose).
	Candidates int
	// Strata is the number of strata the plan draws from (0 = unstratified).
	Strata int
	// ProfileInstructions counts the functional instructions the cheap
	// selection pass executed (0 for strategies that select without
	// profiling).
	ProfileInstructions uint64
}

// Estimate is a strategy's IPC estimate with its confidence interval.
type Estimate struct {
	// IPC is the point estimate.
	IPC float64
	// CI is the 95% confidence interval in Space.
	CI stats.Interval
	// Space names the space the interval lives in: "CPI" for strategies
	// that aggregate cycles-per-instruction (the unbiased estimator for
	// equal-size regions), "IPC" for weighted-IPC estimators like SimPoint.
	Space string
}

// Confident reports whether the interval covers the true IPC, evaluated in
// the estimate's own space.
func (e Estimate) Confident(trueIPC float64) bool {
	switch e.Space {
	case "CPI":
		if trueIPC == 0 {
			return false
		}
		return e.CI.Contains(1 / trueIPC)
	default:
		return e.CI.Contains(trueIPC)
	}
}

// Outcome is one finished strategy run.
type Outcome struct {
	Strategy string
	Estimate Estimate
	// Clusters are the walker's measurements of the simulated regions,
	// index-aligned with Plan.Regions: in measurement order, pass by pass.
	Clusters []sampling.ClusterStat
	// Plan echoes the selection decision: every region measured, with its
	// size, weight and stratum, and the candidates, strata and profile cost.
	Plan Plan
	// Elapsed is the wall-clock duration of the whole run, selection pass
	// included.
	Elapsed time.Duration
	// Work is the warm-up methods' accumulated state-operation count.
	Work warmup.Work
	// FuncInstructions counts functionally executed instructions across all
	// measurement passes (profiling passes count under
	// Plan.ProfileInstructions instead, mirroring how the SimPoint baseline
	// reports its offline profile separately).
	FuncInstructions uint64
	// HotInstructions counts instructions retired by the timing model.
	HotInstructions uint64
}

// Strategy is a complete sampling regimen.
type Strategy interface {
	// Name is the strategy's registry key (also its CLI spelling).
	Name() string
	// Describe is a one-line human summary for listings.
	Describe() string
	// Select plans the detailed-simulation regions without running them.
	// Strategies whose selection needs a profiling pass execute it here.
	Select(p Params) (*Plan, error)
	// Run executes the full strategy: selection, measurement with warm-up,
	// and estimation.
	Run(p Params) (*Outcome, error)
	// drive is the strategy's own sequence of runner steps on a run RunTimed
	// has started; Run is RunTimed without the time.
	drive(r *run) (*Outcome, error)
}

// registry holds the built-in strategies in presentation order.
var registry = []Strategy{
	SimPoint{},
	RankedSet{},
	TwoPhaseStratified{},
}

// All returns the registered strategies in presentation order.
func All() []Strategy { return append([]Strategy(nil), registry...) }

// PaperDesign names the paper's own design, which a job may name like a
// strategy but which no Strategy runs: see the package comment.
const PaperDesign = "stratified-uniform"

// Names returns every name a job's strategy may carry, in presentation
// order: PaperDesign, then the registered strategies.
func Names() []string {
	out := []string{PaperDesign}
	for _, s := range registry {
		out = append(out, s.Name())
	}
	return out
}

// ByName resolves a registered strategy by name; PaperDesign is not one.
func ByName(name string) (Strategy, error) {
	for _, s := range registry {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("regimen: unknown strategy %q (have %v)", name, Names())
}

// ValidateRegions checks a plan's execution-order invariants with the
// walker's own validator: regions are sorted by start, non-overlapping,
// positively sized, and end within total.
func ValidateRegions(regions []Region, total uint64) error {
	return sampling.ValidateRegions(walkerRegions(regions), total)
}
