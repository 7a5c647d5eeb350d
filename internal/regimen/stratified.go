package regimen

import (
	"time"

	"rsr/internal/sampling"
	"rsr/internal/simpoint"
)

// StratifiedUniform is the paper's design re-expressed through the strategy
// seam: stratified-uniform cluster placement, the configured warm-up method
// between clusters, and the mean-cluster-CPI estimator with its CI95. Select
// places clusters with sampling.Positions and Run measures them with the same
// region walker sampling.RunSampledOpts uses, so every result — cluster
// positions, per-cluster cycle counts, work counters — is byte-identical to
// that path (TestStratifiedUniformByteIdentical).
type StratifiedUniform struct{}

// Name implements Strategy.
func (StratifiedUniform) Name() string { return "stratified-uniform" }

// Describe implements Strategy.
func (StratifiedUniform) Describe() string {
	return "paper baseline: stratified-uniform placement, mean-cluster-CPI estimator"
}

// Select implements Strategy: one region per stratum, uniformly placed
// within it — exactly sampling.Positions.
func (StratifiedUniform) Select(p Params) (*Plan, error) {
	starts, err := sampling.Positions(p.Total, p.Regimen, p.Seed)
	if err != nil {
		return nil, err
	}
	regions := make([]Region, len(starts))
	for i, s := range starts {
		regions[i] = Region{Start: s, Size: p.Regimen.ClusterSize, Weight: 1, Stratum: i, Draw: -1}
	}
	return &Plan{Regions: regions, Candidates: len(regions), Strata: len(regions)}, nil
}

// Run implements Strategy.
func (s StratifiedUniform) Run(p Params) (*Outcome, error) {
	plan, err := s.Select(p)
	if err != nil {
		return nil, err
	}
	res, err := measureRegions(p, plan.Regions)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Strategy:         s.Name(),
		Estimate:         Estimate{IPC: res.IPCEstimate(), CI: res.CI(), Space: "CPI"},
		Regions:          measured(plan.Regions, res),
		Plan:             *plan,
		Elapsed:          res.Elapsed,
		Work:             res.Work,
		FuncInstructions: res.FuncInstructions,
		HotInstructions:  res.HotInstructions,
	}
	p.Instr.record(out)
	return out, nil
}

// SimPoint is the SimPoint baseline through the strategy seam: BBV
// profiling at ClusterSize granularity, k-means selection of NumClusters
// representative intervals, weighted-IPC estimation. Run delegates to
// simpoint.Estimate, so results are byte-identical to the standalone
// baseline. SimPoint's estimator is a weighted point estimate with no
// sampling-theory interval, so the CI is zero-width around the estimate.
type SimPoint struct{}

// Name implements Strategy.
func (SimPoint) Name() string { return "simpoint" }

// Describe implements Strategy.
func (SimPoint) Describe() string {
	return "SimPoint baseline: BBV k-means phase selection, weighted-IPC estimate"
}

// config maps the shared Params onto the SimPoint baseline: intervals the
// size of a cluster, k = the cluster budget, so the hot budget matches the
// other strategies.
func (SimPoint) config(p Params) simpoint.Config {
	return simpoint.Config{
		IntervalSize: p.Regimen.ClusterSize,
		MaxPoints:    p.Regimen.NumClusters,
		Seed:         p.Seed,
		Warmup:       p.Warmup,
	}
}

// Select implements Strategy: profile, cluster, and report the chosen
// intervals as regions weighted by cluster population.
func (s SimPoint) Select(p Params) (*Plan, error) {
	cfg := s.config(p)
	intervals, covered, err := simpoint.Profile(p.Program, p.Total, cfg.IntervalSize, p.canceled)
	if err != nil {
		return nil, err
	}
	points := simpoint.Pick(intervals, cfg.MaxPoints, cfg.Seed)
	regions := make([]Region, len(points))
	for i, pt := range points {
		regions[i] = Region{
			Start:   uint64(pt.IntervalIndex) * cfg.IntervalSize,
			Size:    cfg.IntervalSize,
			Weight:  pt.Weight,
			Stratum: i, // each k-means cluster is its own stratum
			Draw:    -1,
		}
	}
	return &Plan{
		Regions:             regions,
		Candidates:          len(intervals),
		Strata:              len(points),
		ProfileInstructions: covered,
	}, nil
}

// Run implements Strategy by delegating to the SimPoint baseline.
func (s SimPoint) Run(p Params) (*Outcome, error) {
	begin := time.Now()
	res, err := simpoint.Estimate(p.Program, p.Machine, p.Total, s.config(p), p.canceled)
	if err != nil {
		return nil, err
	}
	regions := make([]Measured, 0, len(res.Points))
	for _, pt := range res.Points {
		regions = append(regions, Measured{Region: Region{
			Start:  uint64(pt.IntervalIndex) * p.Regimen.ClusterSize,
			Size:   p.Regimen.ClusterSize,
			Weight: pt.Weight,
			Draw:   -1,
		}})
	}
	out := &Outcome{
		Strategy: s.Name(),
		Estimate: Estimate{IPC: res.IPC, CI: statsPoint(res.IPC), Space: "IPC"},
		Regions:  regions,
		Plan: Plan{
			Candidates:          int(res.ProfileInstructions / p.Regimen.ClusterSize),
			Strata:              len(res.Points),
			ProfileInstructions: res.ProfileInstructions,
		},
		Elapsed:         time.Since(begin),
		HotInstructions: res.HotInstructions,
	}
	p.Instr.record(out)
	return out, nil
}
