package regimen

import (
	"slices"
	"sort"

	"rsr/internal/sampling"
	"rsr/internal/simpoint"
	"rsr/internal/stats"
)

// twoPhaseMaxStrata bounds the k-means phase count K. Each stratum needs a
// pilot allocation of its own, so K also scales down with the cluster
// budget (see strataFor).
const twoPhaseMaxStrata = 8

// TwoPhaseStratified implements two-phase stratified sampling: BBV
// profiling at cluster granularity and k-means group the workload's
// intervals into K phase strata, a proportionally allocated pilot (half the
// budget) measures each stratum's CPI variance, and the remaining budget is
// allocated across strata by Neyman allocation (n_h ∝ W_h·S_h) — homogeneous
// phases get the minimum, volatile phases get the rest. Both phases pool
// into the stratified estimator Σ W_h·mean_h with variance Σ W_h²·S_h²/n_h,
// so the interval prices in exactly how the budget was spent.
//
// The detailed budget (NumClusters regions of ClusterSize) matches the other
// strategies; the profiling pass is accounted separately under
// Plan.ProfileInstructions, like the SimPoint baseline's offline profile.
type TwoPhaseStratified struct{}

// Name implements Strategy.
func (TwoPhaseStratified) Name() string { return "two-phase-stratified" }

// Describe implements Strategy.
func (TwoPhaseStratified) Describe() string {
	return "two-phase stratified: BBV phase strata, pilot variance, Neyman second-phase allocation"
}

// strataFor picks K: enough strata to separate phases, few enough that the
// pilot can put ≥2 regions in each.
func (TwoPhaseStratified) strataFor(p Params, intervals int) int {
	k := p.Regimen.NumClusters / 4
	if k > twoPhaseMaxStrata {
		k = twoPhaseMaxStrata
	}
	if k > intervals {
		k = intervals
	}
	if k < 1 {
		k = 1
	}
	return k
}

// stratification is the profiling-pass product shared by Select and Run.
type stratification struct {
	members    [][]int   // members[h] = ascending interval indices of stratum h
	weights    []float64 // W_h = population share of stratum h
	covered    uint64    // profiled instructions
	nIntervals int
}

func (s TwoPhaseStratified) stratify(p Params) (*stratification, error) {
	intervals, covered, err := simpoint.Profile(p.Program, p.Total, p.Regimen.ClusterSize, p.Options.Canceled)
	if err != nil {
		return nil, err
	}
	k := s.strataFor(p, len(intervals))
	assign, _ := simpoint.Clusters(intervals, k, p.Seed)
	st := &stratification{
		members:    make([][]int, k),
		weights:    make([]float64, k),
		covered:    covered,
		nIntervals: len(intervals),
	}
	for i, h := range assign {
		st.members[h] = append(st.members[h], i)
	}
	for h := range st.weights {
		st.weights[h] = float64(len(st.members[h])) / float64(len(intervals))
	}
	return st, nil
}

// pickSpread deterministically selects n unused members of a stratum,
// spread evenly across it (so a pilot or refinement draw covers the
// stratum's whole time span rather than its head). Already-used members are
// skipped by scanning forward with wraparound; fewer than n picks are
// returned when the stratum runs out.
func pickSpread(members []int, n int, used map[int]bool) []int {
	out := make([]int, 0, n)
	if n <= 0 || len(members) == 0 {
		return out
	}
	for j := 0; j < n; j++ {
		pos := ((2*j + 1) * len(members)) / (2 * n)
		found := -1
		for k := 0; k < len(members); k++ {
			cand := members[(pos+k)%len(members)]
			if !used[cand] {
				found = cand
				break
			}
		}
		if found < 0 {
			break
		}
		used[found] = true
		out = append(out, found)
	}
	return out
}

// place picks alloc[h] unused intervals from each stratum h, spread across
// it, marks them used, and returns them as execution-order regions.
func (s TwoPhaseStratified) place(p Params, st *stratification, alloc []int, used map[int]bool) []Region {
	var regions []Region
	for h, n := range alloc {
		for _, idx := range pickSpread(st.members[h], n, used) {
			regions = append(regions, Region{
				Start:   uint64(idx) * p.Regimen.ClusterSize,
				Size:    p.Regimen.ClusterSize,
				Weight:  1,
				Stratum: h,
			})
		}
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i].Start < regions[j].Start })
	return regions
}

// pilot is the selection both Select and Run make from profiling alone: the
// stratification and the first-phase regions, with used marking the
// intervals those regions took.
func (s TwoPhaseStratified) pilot(p Params) (plan *Plan, st *stratification, used map[int]bool, err error) {
	if err := p.Regimen.Validate(p.Total); err != nil {
		return nil, nil, nil, err
	}
	st, err = s.stratify(p)
	if err != nil {
		return nil, nil, nil, err
	}
	// Half the budget goes to the pilot, rounded up so a tiny budget still
	// measures variance, allocated in proportion to stratum weight.
	used = map[int]bool{}
	alloc := stats.ProportionalAllocation((p.Regimen.NumClusters+1)/2, st.weights)
	return &Plan{
		Regions:             s.place(p, st, alloc, used),
		Candidates:          st.nIntervals,
		Strata:              len(st.members),
		ProfileInstructions: st.covered,
	}, st, used, nil
}

// Select implements Strategy. Without pilot measurements the second phase
// cannot be allocated yet, so the plan reports the pilot regions — the
// commitment selection can make from profiling alone.
func (s TwoPhaseStratified) Select(p Params) (*Plan, error) {
	plan, _, _, err := s.pilot(p)
	return plan, err
}

// Run implements Strategy.
func (s TwoPhaseStratified) Run(p Params) (*Outcome, error) { return runOutcome(s, p) }

// drive is profile → pilot pass → Neyman allocation → refinement pass →
// stratified estimate. It is the one adaptive design, so instead of single it
// takes the runner's steps itself, measuring twice.
func (s TwoPhaseStratified) drive(r *run) (*Outcome, error) {
	p := r.p
	plan, st, used, err := s.pilot(p)
	if err != nil {
		return nil, err
	}
	if err := r.planned(plan); err != nil {
		return nil, err
	}
	pilot, err := r.measure(plan.Regions)
	if err != nil {
		return nil, err
	}

	alloc := s.refineAllocation(p.Regimen.NumClusters-len(plan.Regions), st, used, plan.Regions, pilot)
	if refine := s.place(p, st, alloc, used); len(refine) > 0 {
		r.plan.Regions = slices.Concat(plan.Regions, refine)
		if _, err := r.measure(refine); err != nil {
			return nil, err
		}
	}

	out := r.finish(stratifiedMean(r.plan.Regions, r.clusters, st.weights))
	p.Instr.allocations(s.Name(), alloc)
	return out, nil
}

// refineAllocation splits the n2 second-phase regions across strata by
// Neyman allocation on the pilot's per-stratum CPI deviation.
func (s TwoPhaseStratified) refineAllocation(n2 int, st *stratification, used map[int]bool, regions []Region, pilot []sampling.ClusterStat) []int {
	k := len(st.members)
	// Pilot variance per stratum drives the Neyman scores W_h·S_h. Strata
	// whose pilot saw <2 regions report zero deviation; if every score is
	// zero (flat workload or tiny pilot) fall back to proportional
	// allocation so the remaining budget is still spent.
	samples := strataCPIs(regions, pilot, k)
	scores := make([]float64, k)
	var total float64
	for h := range scores {
		scores[h] = st.weights[h] * stats.StdDev(samples[h])
		total += scores[h]
	}
	if total == 0 {
		copy(scores, st.weights)
	}

	alloc := stats.ProportionalAllocation(n2, scores)
	// Clamp each stratum to its unused intervals; redistribute the slack to
	// the highest-scoring strata that still have room.
	avail := make([]int, k)
	assigned := 0
	for h := range alloc {
		avail[h] = len(st.members[h])
		for _, idx := range st.members[h] {
			if used[idx] {
				avail[h]--
			}
		}
		if alloc[h] > avail[h] {
			alloc[h] = avail[h]
		}
		assigned += alloc[h]
	}
	for slack := n2 - assigned; slack > 0; slack-- {
		best := -1
		for h := range alloc {
			if alloc[h] < avail[h] && (best < 0 || scores[h] > scores[best]) {
				best = h
			}
		}
		if best < 0 {
			break // every stratum exhausted; the leftover budget is dropped
		}
		alloc[best]++
	}
	return alloc
}
