package regimen

import "rsr/internal/simpoint"

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
