package regimen

import "rsr/internal/obs"

// allocationBuckets bounds the per-stratum second-phase allocation
// histogram: regimens run tens of clusters, so single-digit buckets carry
// the signal.
var allocationBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}

// Instruments is the regimen layer's bundle of registry instruments: how
// each strategy selects and allocates its detailed budget. Construct one per
// registry with NewInstruments and share it across runs; a nil *Instruments
// disables recording (results are identical either way — recording happens
// once per run, never per instruction).
type Instruments struct {
	runs       *obs.CounterVec
	candidates *obs.CounterVec
	selected   *obs.CounterVec
	profile    *obs.CounterVec
	hot        *obs.CounterVec
	allocation *obs.HistogramVec
}

// NewInstruments registers (idempotently) the regimen metric families on r
// and returns the bundle. A nil registry yields nil, which disables
// recording everywhere it is passed.
func NewInstruments(r *obs.Registry) *Instruments {
	if r == nil {
		return nil
	}
	return &Instruments{
		runs: r.CounterVec("rsr_regimen_runs_total",
			"Finished strategy runs by sampling strategy.", "strategy"),
		candidates: r.CounterVec("rsr_regimen_candidates_total",
			"Regions considered by selection, by strategy (pool size for ranked-set, profiled intervals for phase-aware strategies).", "strategy"),
		selected: r.CounterVec("rsr_regimen_selected_regions_total",
			"Regions chosen for detailed simulation, by strategy.", "strategy"),
		profile: r.CounterVec("rsr_regimen_profile_instructions_total",
			"Functional instructions spent by cheap selection passes (BBV profiling, sketch-cache scoring), by strategy.", "strategy"),
		hot: r.CounterVec("rsr_regimen_hot_instructions_total",
			"Instructions retired by the timing model across strategy runs, by strategy.", "strategy"),
		allocation: r.HistogramVec("rsr_regimen_stratum_allocation",
			"Second-phase regions allocated per stratum (two-phase strategies): the shape of the Neyman allocation.",
			allocationBuckets, "strategy"),
	}
}

// record folds one finished outcome into the registry.
func (in *Instruments) record(o *Outcome) {
	if in == nil {
		return
	}
	in.runs.With(o.Strategy).Inc()
	in.candidates.With(o.Strategy).Add(uint64(o.Plan.Candidates))
	in.selected.With(o.Strategy).Add(uint64(len(o.Clusters)))
	in.profile.With(o.Strategy).Add(o.Plan.ProfileInstructions)
	in.hot.With(o.Strategy).Add(o.HotInstructions)
}

// allocations records a two-phase strategy's per-stratum second-phase
// allocation.
func (in *Instruments) allocations(strategy string, alloc []int) {
	if in == nil {
		return
	}
	h := in.allocation.With(strategy)
	for _, n := range alloc {
		h.Observe(float64(n))
	}
}
