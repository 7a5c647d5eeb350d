package regimen

import (
	"fmt"
	"time"

	"rsr/internal/sampling"
	"rsr/internal/warmup"
)

// run is one strategy run in progress, and the only way a strategy reaches
// the region walker or builds an Outcome: RunTimed starts the clock and hands
// the run to the strategy's drive, planned takes the selection, measure
// executes a pass over some of its regions, and finish turns an estimate over
// the measurements into the recorded Outcome. A single-pass strategy's drive
// is r.single; the adaptive one (two-phase-stratified) calls measure twice
// and decides the second pass from the first.
type run struct {
	s     Strategy
	p     Params
	begin time.Time
	plan  Plan
	// selectElapsed is the wall time selection took, stamped once by
	// planned. It stays off the Outcome, whose one wall-clock field is
	// Elapsed: the benchmark compares whole outcomes between rounds with
	// only that field zeroed.
	selectElapsed time.Duration

	clusters            []sampling.ClusterStat
	work                warmup.Work
	funcInstr, hotInstr uint64
}

// RunTimed is s.Run(p), also reporting how much of Outcome.Elapsed selection
// took (placement, or BBV profiling and k-means), which Figure 9, like the
// paper, leaves out of SimPoint's simulation time. Every run's clock starts
// here, before selection.
func RunTimed(s Strategy, p Params) (out *Outcome, selection time.Duration, err error) {
	r := &run{s: s, p: p, begin: time.Now()}
	out, err = s.drive(r)
	return out, r.selectElapsed, err
}

// runOutcome is the body of every Strategy.Run.
func runOutcome(s Strategy, p Params) (*Outcome, error) {
	out, _, err := RunTimed(s, p)
	return out, err
}

// planned adopts the selection decision and stamps how long it took.
func (r *run) planned(plan *Plan) error {
	if len(plan.Regions) == 0 {
		return fmt.Errorf("regimen: %s selected no regions", r.s.Name())
	}
	r.plan, r.selectElapsed = *plan, time.Since(r.begin)
	return nil
}

// measure executes one measurement pass over regions and folds it into the
// run's totals: its clusters, index-aligned with regions, follow the earlier
// passes' as regions follow theirs in the plan.
func (r *run) measure(regions []Region) ([]sampling.ClusterStat, error) {
	pr, err := measureRegions(r.p, regions)
	if err != nil {
		return nil, err
	}
	r.clusters = append(r.clusters, pr.Clusters...)
	r.work = r.work.Add(pr.Work)
	r.funcInstr += pr.FuncInstructions
	r.hotInstr += pr.HotInstructions
	return pr.Clusters, nil
}

// finish assembles the run's Outcome around e and records it.
func (r *run) finish(e Estimate) *Outcome {
	out := &Outcome{
		Strategy:         r.s.Name(),
		Estimate:         e,
		Clusters:         r.clusters,
		Plan:             r.plan,
		Elapsed:          time.Since(r.begin),
		Work:             r.work,
		FuncInstructions: r.funcInstr,
		HotInstructions:  r.hotInstr,
	}
	r.p.Instr.record(out)
	return out
}

// single is a single-pass strategy's drive: select, measure every selected
// region in one pass, estimate. It checks only what the walker needs of the
// plan (ValidateRegions) and never Regimen.Validate — SimPoint may ask for
// more points than there are intervals and simply gets fewer.
func (r *run) single(estimate func([]Region, []sampling.ClusterStat) Estimate) (*Outcome, error) {
	plan, err := r.s.Select(r.p)
	if err != nil {
		return nil, err
	}
	if err := r.planned(plan); err != nil {
		return nil, err
	}
	cs, err := r.measure(plan.Regions)
	if err != nil {
		return nil, err
	}
	return r.finish(estimate(plan.Regions, cs)), nil
}

// measureRegions executes one measurement pass — the shared region walker
// over the given regions under the configured warm-up method — so every
// strategy's pass honours Params.Options exactly as the paper's design does.
// Regions must satisfy ValidateRegions, and Params.Warmup its own Validate:
// this is where the spec becomes a method.
func measureRegions(p Params, regions []Region) (*sampling.RunResult, error) {
	wr := walkerRegions(regions)
	if err := sampling.ValidateRegions(wr, p.Total); err != nil {
		return nil, err
	}
	if err := p.Warmup.Validate(); err != nil {
		return nil, fmt.Errorf("regimen: Params.Warmup: %w", err)
	}
	return sampling.RunRegions(p.Program, p.Machine, wr, p.Warmup.New, p.Options)
}

// walkerRegions strips a plan's regions to what the walker executes.
func walkerRegions(regions []Region) []sampling.Region {
	out := make([]sampling.Region, len(regions))
	for i, r := range regions {
		out[i] = sampling.Region{Start: r.Start, Size: r.Size}
	}
	return out
}
