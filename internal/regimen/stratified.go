package regimen

import "rsr/internal/simpoint"

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

// Select implements Strategy: the regimen's stratified-uniform placement
// (Regimen.Regions, exactly sampling.Positions) as a plan — one equally
// weighted region per stratum, uniformly placed within it.
func (StratifiedUniform) Select(p Params) (*Plan, error) {
	clusters, err := p.Regimen.Regions(p.Total, p.Seed)
	if err != nil {
		return nil, err
	}
	regions := make([]Region, len(clusters))
	for i, c := range clusters {
		regions[i] = Region{Start: c.Start, Size: c.Size, Weight: 1, Stratum: i}
	}
	return &Plan{Regions: regions, Candidates: len(regions), Strata: len(regions)}, nil
}

// Run implements Strategy.
func (s StratifiedUniform) Run(p Params) (*Outcome, error) { return runOutcome(s, p) }

func (StratifiedUniform) drive(r *run) (*Outcome, error) { return r.single(meanCPI) }

// SimPoint is the SimPoint baseline through the strategy seam: BBV
// profiling at ClusterSize granularity, k-means selection of up to
// NumClusters representative intervals, and the population-weighted IPC of
// the chosen intervals, measured by the same region walker as every other
// strategy — with the configured warm-up method between points, the paper's
// "50K-SMARTS" variants. The estimator is a weighted point estimate with no
// sampling-theory interval, so the CI is zero-width around the estimate.
type SimPoint struct{}

// Name implements Strategy.
func (SimPoint) Name() string { return "simpoint" }

// Describe implements Strategy.
func (SimPoint) Describe() string {
	return "SimPoint baseline: BBV k-means phase selection, weighted-IPC estimate"
}

// Select implements Strategy: profile, cluster, and report the chosen
// intervals as regions weighted by cluster population. Intervals are the
// size of a cluster and k is the cluster budget, so the hot budget matches
// the other strategies; k is clamped to the interval count, so a regimen
// that would not fit the workload (Figure 9's 30 points of Total/20) selects
// fewer points rather than failing.
func (SimPoint) Select(p Params) (*Plan, error) {
	size := p.Regimen.ClusterSize
	intervals, covered, err := simpoint.Profile(p.Program, p.Total, size, p.Options.Canceled)
	if err != nil {
		return nil, err
	}
	points := simpoint.Pick(intervals, p.Regimen.NumClusters, p.Seed)
	regions := make([]Region, len(points))
	for i, pt := range points {
		regions[i] = Region{
			Start:   uint64(pt.IntervalIndex) * size,
			Size:    size,
			Weight:  pt.Weight,
			Stratum: i, // each k-means cluster is its own stratum
		}
	}
	return &Plan{
		Regions:             regions,
		Candidates:          len(intervals),
		Strata:              len(points),
		ProfileInstructions: covered,
	}, nil
}

// Run implements Strategy.
func (s SimPoint) Run(p Params) (*Outcome, error) { return runOutcome(s, p) }

func (SimPoint) drive(r *run) (*Outcome, error) { return r.single(weightedIPC) }
