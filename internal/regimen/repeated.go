package regimen

// rssDraws is the number of interpenetrating subsamples R. More draws give
// the between-draw variance estimator more degrees of freedom but shrink
// each draw; 5 keeps ≥ 6 clusters per draw under the default 30–50-cluster
// regimens.
const rssDraws = 5

// RepeatedSubsampling implements interpenetrating (replicated) subsampling:
// the detailed budget is placed exactly like stratified-uniform — same
// positions, same total hot work — but split round-robin into R interleaved
// draws, each of which is itself a systematic stratified subsample of the
// workload. The point estimate is the mean of the R draw means, and the
// confidence interval is computed *between* draws (Mahalanobis's classic
// estimator): it stays honest under intra-draw correlation, where the
// per-cluster SRS interval of the baseline design goes over-tight.
type RepeatedSubsampling struct{}

// Name implements Strategy.
func (RepeatedSubsampling) Name() string { return "repeated-subsampling" }

// Describe implements Strategy.
func (RepeatedSubsampling) Describe() string {
	return "repeated subsampling: R interleaved draws, CI from between-draw spread"
}

// draws returns the usable draw count: at least 2 clusters per draw, at
// least 2 draws (below that there is no between-draw variance to estimate
// and the strategy degenerates to stratified-uniform with a zero-width CI).
func (RepeatedSubsampling) draws(p Params) int {
	r := rssDraws
	for r > 1 && p.Regimen.NumClusters/r < 2 {
		r--
	}
	return r
}

// Select implements Strategy: stratified-uniform placement (byte-identical
// positions to the baseline design for the same seed), draw = index mod R.
func (s RepeatedSubsampling) Select(p Params) (*Plan, error) {
	r := s.draws(p)
	return placed(p, func(i int) int { return i % r })
}

// Run implements Strategy.
func (s RepeatedSubsampling) Run(p Params) (*Outcome, error) { return runOutcome(s, p) }

func (s RepeatedSubsampling) drive(r *run) (*Outcome, error) {
	return r.single(func(ms []Measured) Estimate { return betweenDraws(ms, s.draws(r.p)) })
}
