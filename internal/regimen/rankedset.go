package regimen

import (
	"fmt"
	"sort"

	"rsr/internal/funcsim"
	"rsr/internal/sampling"
	"rsr/internal/trace"
)

// rssSetSize is the ranked-set group size m: each detailed region is chosen
// from m candidates by rank. Larger m spreads the sample further across the
// statistic's distribution at the cost of a proportionally larger candidate
// pool; 3 is the classic RSS sweet spot (ranking error grows with m).
const rssSetSize = 3

// sketchLines and sketchLineShift size the direct-mapped sketch cache that
// scores candidates during the cheap pass: 1024 lines of 64 bytes (64 KiB
// reach). It deliberately undersizes the simulated L2 so its miss count
// correlates with — without duplicating — the detailed model's memory
// behaviour.
const (
	sketchLines     = 1024
	sketchLineShift = 6
)

// RankedSet implements ranked-set sampling over candidate regions: a
// stratified-uniform pool of m·n candidates is scored by a one-pass
// functional statistic (misses in a small direct-mapped sketch cache — a
// cheap proxy for memory-boundedness, the dominant CPI driver), each
// consecutive group of m candidates is ranked by its score, and group g
// contributes its (g mod m)-th order statistic. The result is n detailed
// regions balanced across the statistic's distribution: low-scoring groups
// can no longer crowd out the expensive tail that drives the mean.
//
// The estimator is the mean region CPI with the SRS confidence interval; for
// a consistent ranking statistic the balanced-RSS mean is unbiased and its
// true variance is at most the SRS variance, so the reported interval is
// conservative.
type RankedSet struct{}

// Name implements Strategy.
func (RankedSet) Name() string { return "ranked-set" }

// Describe implements Strategy.
func (RankedSet) Describe() string {
	return "ranked-set sampling: rank m-candidate groups by a sketch-cache statistic, rotate order statistics"
}

// setSize returns the largest usable group size: m candidates per detailed
// region must all fit the workload. m=1 degenerates to stratified-uniform
// placement (with this strategy's estimator).
func (RankedSet) setSize(p Params) int {
	m := rssSetSize
	for m > 1 && uint64(m*p.Regimen.NumClusters)*p.Regimen.ClusterSize > p.Total {
		m--
	}
	return m
}

// Select implements Strategy: place the candidate pool, score it with the
// functional pass, rank within groups, rotate the chosen order statistic.
func (s RankedSet) Select(p Params) (*Plan, error) {
	if err := p.Regimen.Validate(p.Total); err != nil {
		return nil, err
	}
	m := s.setSize(p)
	pool := sampling.Regimen{ClusterSize: p.Regimen.ClusterSize, NumClusters: m * p.Regimen.NumClusters}
	starts, err := sampling.Positions(p.Total, pool, p.Seed)
	if err != nil {
		return nil, err
	}
	scores, profiled, err := s.score(p, starts)
	if err != nil {
		return nil, err
	}

	regions := make([]Region, 0, p.Regimen.NumClusters)
	for g := 0; g < p.Regimen.NumClusters; g++ {
		// Rank the group's m candidates by score (ties break by time order,
		// keeping selection deterministic), then take the rotating order
		// statistic. One pick per consecutive group keeps the selected
		// regions time-ordered and disjoint.
		members := make([]int, m)
		for j := range members {
			members[j] = g*m + j
		}
		sort.SliceStable(members, func(a, b int) bool {
			return scores[members[a]] < scores[members[b]]
		})
		pick := members[g%m]
		regions = append(regions, Region{
			Start:   starts[pick],
			Size:    p.Regimen.ClusterSize,
			Weight:  1,
			Stratum: g,
		})
	}
	return &Plan{
		Regions:             regions,
		Candidates:          len(starts),
		Strata:              p.Regimen.NumClusters,
		ProfileInstructions: profiled,
	}, nil
}

// score runs the cheap functional pass: every memory access probes the
// sketch cache (kept warm across the whole run so mid-run candidates are not
// penalized by cold misses), and misses landing inside a candidate window
// are charged to that candidate.
func (s RankedSet) score(p Params, starts []uint64) ([]uint64, uint64, error) {
	scores := make([]uint64, len(starts))
	tags := make([]uint64, sketchLines)
	for i := range tags {
		tags[i] = ^uint64(0)
	}
	size := p.Regimen.ClusterSize
	next := 0 // first candidate whose window has not ended
	fs := funcsim.New(p.Program)
	buf := make([]trace.DynInst, funcsim.BatchSize)
	ran, err := fs.RunBatches(p.Total, buf, func(ds []trace.DynInst) {
		for i := range ds {
			d := &ds[i]
			if !d.IsMem() {
				continue
			}
			line := d.EffAddr >> sketchLineShift
			set := line % sketchLines
			if tags[set] == line {
				continue
			}
			tags[set] = line
			for next < len(starts) && d.Seq >= starts[next]+size {
				next++
			}
			if next < len(starts) && d.Seq >= starts[next] {
				scores[next]++
			}
		}
	}, p.Options.Canceled)
	switch {
	case err != nil:
		return nil, ran, fmt.Errorf("regimen: ranked-set scoring pass: %w", err)
	case p.Options.Canceled():
		return nil, ran, sampling.ErrCanceled
	case ran != p.Total:
		return nil, ran, fmt.Errorf("regimen: workload halted after %d instructions during scoring", ran)
	}
	return scores, ran, nil
}

// Run implements Strategy.
func (s RankedSet) Run(p Params) (*Outcome, error) { return runOutcome(s, p) }

func (RankedSet) drive(r *run) (*Outcome, error) { return r.single(meanCPI) }
