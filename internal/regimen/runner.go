package regimen

import (
	"rsr/internal/sampling"
	"rsr/internal/stats"
)

// measureRegions executes one measurement pass — the shared region walker
// over the plan's regions under the configured warm-up method — so every
// strategy's pass honours Params.Shards and Params.Cancel exactly as the
// stratified-uniform design does. Regions must satisfy ValidateRegions.
func measureRegions(p Params, regions []Region) (*sampling.RunResult, error) {
	wr := walkerRegions(regions)
	if err := sampling.ValidateRegions(wr, p.Total); err != nil {
		return nil, err
	}
	return sampling.RunRegions(p.Program, p.Machine, wr, p.Warmup.New,
		sampling.Options{Cancel: p.Cancel, Shards: p.Shards})
}

// walkerRegions strips a plan's regions to what the walker executes.
func walkerRegions(regions []Region) []sampling.Region {
	out := make([]sampling.Region, len(regions))
	for i, r := range regions {
		out[i] = sampling.Region{Start: r.Start, Size: r.Size}
	}
	return out
}

// measured zips a pass's results back onto their regions.
func measured(regions []Region, pr *sampling.RunResult) []Measured {
	out := make([]Measured, len(pr.Clusters))
	for i, c := range pr.Clusters {
		out[i] = Measured{Region: regions[i], Result: c.Result}
	}
	return out
}

// cpisOf extracts the per-region CPI sample from measurements, skipping
// regions that retired nothing (the workload ended at their start) so a
// truncated tail cannot poison a CPI-space estimator.
func cpisOf(ms []Measured) []float64 {
	out := make([]float64, 0, len(ms))
	for _, m := range ms {
		if m.Result.Instructions > 0 {
			out = append(out, m.CPI())
		}
	}
	return out
}

// statsPoint is a zero-width interval around a point estimate, for
// estimators with no sampling-theory error bound.
func statsPoint(v float64) stats.Interval { return stats.Interval{Mean: v} }

// ipcFromCPI converts a CPI-space interval into the package's Estimate.
func ipcFromCPI(ci stats.Interval) Estimate {
	e := Estimate{CI: ci, Space: "CPI"}
	if ci.Mean != 0 {
		e.IPC = 1 / ci.Mean
	}
	return e
}
