package regimen

import (
	"rsr/internal/sampling"
	"rsr/internal/stats"
)

// The estimators: pure functions from a pass's regions and their
// index-aligned measurements to an Estimate. Every one takes its sample
// through sampling.ClusterStat.CPI, so a region that retired nothing (the
// workload ended at its start) is left out of every estimate, as the unnamed
// run leaves it out of its own.

// meanCPI is the mean region CPI with its SRS 95% interval: the paper's
// estimator for equal-size, equally weighted regions, computed by the unnamed
// run's own RunResult.CI.
func meanCPI(_ []Region, cs []sampling.ClusterStat) Estimate {
	return ipcFromCPI((&sampling.RunResult{Clusters: cs}).CI())
}

// weightedIPC is SimPoint's estimate: per-region IPC weighted by Region.Weight,
// renormalized over the regions that retired something. It has no
// sampling-theory error bound, so the interval is zero-width.
func weightedIPC(regions []Region, cs []sampling.ClusterStat) Estimate {
	var weighted, wsum float64
	for i, c := range cs {
		if _, ok := c.CPI(); ok {
			weighted += regions[i].Weight * c.Result.IPC()
			wsum += regions[i].Weight
		}
	}
	e := Estimate{Space: "IPC"}
	if wsum > 0 {
		e.IPC = weighted / wsum
	}
	e.CI = stats.Interval{Mean: e.IPC}
	return e
}

// stratifiedMean is Σ W_h·mean_h over the strata (Region.Stratum indexes
// weights) with variance Σ W_h²·S_h²/n_h.
func stratifiedMean(regions []Region, cs []sampling.ClusterStat, weights []float64) Estimate {
	strata := make([]stats.Stratum, len(weights))
	for h, cpis := range strataCPIs(regions, cs, len(weights)) {
		strata[h] = stats.Stratum{Weight: weights[h], Samples: cpis}
	}
	return ipcFromCPI(stats.StratifiedMean(strata))
}

// strataCPIs sorts the measured CPIs into k groups by Region.Stratum, each in
// measurement order.
func strataCPIs(regions []Region, cs []sampling.ClusterStat, k int) [][]float64 {
	groups := make([][]float64, k)
	for i, c := range cs {
		if cpi, ok := c.CPI(); ok {
			h := regions[i].Stratum
			groups[h] = append(groups[h], cpi)
		}
	}
	return groups
}

// ipcFromCPI converts a CPI-space interval into the package's Estimate.
func ipcFromCPI(ci stats.Interval) Estimate {
	e := Estimate{CI: ci, Space: "CPI"}
	if ci.Mean != 0 {
		e.IPC = 1 / ci.Mean
	}
	return e
}
