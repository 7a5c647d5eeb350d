package regimen

import (
	"time"

	"rsr/internal/simpoint"
	"rsr/internal/stats"
	"rsr/internal/warmup"
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
	members [][]int   // members[h] = ascending interval indices of stratum h
	weights []float64 // W_h = population share of stratum h
	covered uint64    // profiled instructions
	nIntervals int
}

func (s TwoPhaseStratified) stratify(p Params) (*stratification, error) {
	intervals, covered, err := simpoint.Profile(p.Program, p.Total, p.Regimen.ClusterSize, p.canceled)
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

// pilotBudget splits the cluster budget: half to the pilot (rounded up so a
// tiny budget still measures variance), the rest to the refinement phase.
func pilotBudget(n int) int {
	n1 := (n + 1) / 2
	if n1 < 1 {
		n1 = 1
	}
	return n1
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

// regionsOf converts chosen interval indices to execution-order regions.
func (s TwoPhaseStratified) regionsOf(p Params, picks map[int]int) []Region {
	regions := make([]Region, 0, len(picks))
	for idx, h := range picks {
		regions = append(regions, Region{
			Start:   uint64(idx) * p.Regimen.ClusterSize,
			Size:    p.Regimen.ClusterSize,
			Weight:  1,
			Stratum: h,
			Draw:    -1,
		})
	}
	sortRegions(regions)
	return regions
}

// pilotPlan allocates and places the first-phase regions.
func (s TwoPhaseStratified) pilotPlan(p Params, st *stratification, used map[int]bool) []Region {
	n1 := pilotBudget(p.Regimen.NumClusters)
	alloc := stats.ProportionalAllocation(n1, st.weights)
	picks := map[int]int{}
	for h, n := range alloc {
		for _, idx := range pickSpread(st.members[h], n, used) {
			picks[idx] = h
		}
	}
	return s.regionsOf(p, picks)
}

// Select implements Strategy. Without pilot measurements the second phase
// cannot be allocated yet, so the plan reports the pilot regions — the
// commitment selection can make from profiling alone.
func (s TwoPhaseStratified) Select(p Params) (*Plan, error) {
	if err := p.Regimen.Validate(p.Total); err != nil {
		return nil, err
	}
	st, err := s.stratify(p)
	if err != nil {
		return nil, err
	}
	regions := s.pilotPlan(p, st, map[int]bool{})
	return &Plan{
		Regions:             regions,
		Candidates:          st.nIntervals,
		Strata:              len(st.members),
		ProfileInstructions: st.covered,
	}, nil
}

// Run implements Strategy: profile → pilot pass → Neyman allocation →
// refinement pass → stratified estimate.
func (s TwoPhaseStratified) Run(p Params) (*Outcome, error) {
	begin := time.Now()
	if err := p.Regimen.Validate(p.Total); err != nil {
		return nil, err
	}
	st, err := s.stratify(p)
	if err != nil {
		return nil, err
	}
	k := len(st.members)
	used := map[int]bool{}
	pilot := s.pilotPlan(p, st, used)
	pilotPR, err := measureRegions(p, pilot)
	if err != nil {
		return nil, err
	}
	pilotMS := measured(pilot, pilotPR)

	// Pilot variance per stratum drives the Neyman scores W_h·S_h. Strata
	// whose pilot saw <2 regions report zero deviation; if every score is
	// zero (flat workload or tiny pilot) fall back to proportional
	// allocation so the remaining budget is still spent.
	samples := make([][]float64, k)
	for _, m := range pilotMS {
		if m.Result.Instructions > 0 {
			samples[m.Region.Stratum] = append(samples[m.Region.Stratum], m.CPI())
		}
	}
	scores := make([]float64, k)
	var total float64
	for h := range scores {
		scores[h] = st.weights[h] * stats.StdDev(samples[h])
		total += scores[h]
	}
	if total == 0 {
		copy(scores, st.weights)
	}

	n2 := p.Regimen.NumClusters - len(pilot)
	alloc := stats.ProportionalAllocation(n2, scores)
	// Clamp each stratum to its unused intervals; redistribute the slack to
	// the highest-scoring strata that still have room.
	avail := make([]int, k)
	for h := range avail {
		avail[h] = len(st.members[h])
	}
	for h := range alloc {
		usedIn := 0
		for _, idx := range st.members[h] {
			if used[idx] {
				usedIn++
			}
		}
		avail[h] = len(st.members[h]) - usedIn
		if alloc[h] > avail[h] {
			alloc[h] = avail[h]
		}
	}
	assigned := 0
	for _, n := range alloc {
		assigned += n
	}
	for slack := n2 - assigned; slack > 0; {
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
		slack--
	}

	picks := map[int]int{}
	for h, n := range alloc {
		for _, idx := range pickSpread(st.members[h], n, used) {
			picks[idx] = h
		}
	}
	refine := s.regionsOf(p, picks)
	var refineMS []Measured
	work := pilotPR.Work
	funcInstr, hotInstr := pilotPR.FuncInstructions, pilotPR.HotInstructions
	if len(refine) > 0 {
		refinePR, err := measureRegions(p, refine)
		if err != nil {
			return nil, err
		}
		refineMS = measured(refine, refinePR)
		work = addWork(work, refinePR.Work)
		funcInstr += refinePR.FuncInstructions
		hotInstr += refinePR.HotInstructions
	}

	for _, m := range refineMS {
		if m.Result.Instructions > 0 {
			samples[m.Region.Stratum] = append(samples[m.Region.Stratum], m.CPI())
		}
	}
	strata := make([]stats.Stratum, k)
	for h := range strata {
		strata[h] = stats.Stratum{Weight: st.weights[h], Samples: samples[h]}
	}

	out := &Outcome{
		Strategy: s.Name(),
		Estimate: ipcFromCPI(stats.StratifiedMean(strata)),
		Regions:  append(pilotMS, refineMS...),
		Plan: Plan{
			Regions:             append(append([]Region(nil), pilot...), refine...),
			Candidates:          st.nIntervals,
			Strata:              k,
			ProfileInstructions: st.covered,
		},
		Elapsed:          time.Since(begin),
		Work:             work,
		FuncInstructions: funcInstr,
		HotInstructions:  hotInstr,
	}
	p.Instr.record(out)
	p.Instr.allocations(s.Name(), alloc)
	return out, nil
}

// addWork sums two warm-up work tallies (one per measurement pass).
func addWork(a, b warmup.Work) warmup.Work {
	return warmup.Work{
		WarmOps:       a.WarmOps + b.WarmOps,
		LoggedRecords: a.LoggedRecords + b.LoggedRecords,
		ReconScanned:  a.ReconScanned + b.ReconScanned,
		ReconApplied:  a.ReconApplied + b.ReconApplied,
	}
}
