package regimen

import (
	"math"

	"rsr/internal/stats"
)

// The estimators: pure functions from measurements to an Estimate. A region
// that retired nothing (the workload ended at its start) carries no timing
// information, so every estimator leaves it out rather than let a zero CPI or
// a NaN IPC into the aggregate.

// meanCPI is the mean region CPI with its SRS 95% interval: the paper's
// estimator for equal-size, equally weighted regions.
func meanCPI(ms []Measured) Estimate {
	return ipcFromCPI(stats.CI95(cpisOf(ms)))
}

// weightedIPC is SimPoint's estimate: region IPCs weighted by Region.Weight,
// renormalized over the regions that retired something. It has no
// sampling-theory error bound, so the interval is zero-width.
func weightedIPC(ms []Measured) Estimate {
	var weighted, wsum float64
	for _, m := range ms {
		if ipc := m.Result.IPC(); m.Result.Instructions > 0 && !math.IsNaN(ipc) {
			weighted += m.Region.Weight * ipc
			wsum += m.Region.Weight
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
func stratifiedMean(ms []Measured, weights []float64) Estimate {
	strata := make([]stats.Stratum, len(weights))
	for h, cpis := range strataCPIs(ms, len(weights)) {
		strata[h] = stats.Stratum{Weight: weights[h], Samples: cpis}
	}
	return ipcFromCPI(stats.StratifiedMean(strata))
}

// strataCPIs sorts the measured CPIs into k groups by Region.Stratum, each in
// measurement order.
func strataCPIs(ms []Measured, k int) [][]float64 {
	groups := make([][]float64, k)
	for _, m := range ms {
		if m.Result.Instructions > 0 {
			groups[m.Region.Stratum] = append(groups[m.Region.Stratum], m.CPI())
		}
	}
	return groups
}

// cpisOf extracts the per-region CPI sample.
func cpisOf(ms []Measured) []float64 {
	out := make([]float64, 0, len(ms))
	for _, m := range ms {
		if m.Result.Instructions > 0 {
			out = append(out, m.CPI())
		}
	}
	return out
}

// ipcFromCPI converts a CPI-space interval into the package's Estimate.
func ipcFromCPI(ci stats.Interval) Estimate {
	e := Estimate{CI: ci, Space: "CPI"}
	if ci.Mean != 0 {
		e.IPC = 1 / ci.Mean
	}
	return e
}
