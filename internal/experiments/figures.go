package experiments

import (
	"time"

	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
)

// Table1Row is one row of Table 1: the true IPC and the sampling regimen of
// a workload.
type Table1Row struct {
	Workload    string
	TrueIPC     float64
	ClusterSize uint64
	NumClusters int
	Total       uint64
	FullElapsed time.Duration
}

// Table1 regenerates Table 1 ("True IPC and sampling regimen data for each
// workload") by running the full detailed simulations.
func (l *Lab) Table1() ([]Table1Row, error) {
	names := l.cfg.workloadNames()
	rows := make([]Table1Row, len(names))
	for i, name := range names {
		full, err := l.Full(name)
		if err != nil {
			return nil, err
		}
		reg := RegimenFor(name)
		rows[i] = Table1Row{
			Workload:    name,
			TrueIPC:     full.Result.IPC(),
			ClusterSize: reg.ClusterSize,
			NumClusters: reg.NumClusters,
			Total:       l.cfg.Total(),
			FullElapsed: full.Elapsed,
		}
	}
	return rows, nil
}

// FigureResult bundles the cells and method averages of one figure.
type FigureResult struct {
	Title    string
	Cells    []Cell
	Averages []MethodAverage
}

// figure runs a figure's arms and bundles the cells with their per-label
// averages.
func (l *Lab) figure(title string, arms []arm) (*FigureResult, error) {
	cells, err := l.runArms(arms)
	if err != nil {
		return nil, err
	}
	return &FigureResult{Title: title, Cells: cells, Averages: averageBy(cells, byMethod)}, nil
}

// Figure5 compares cache-only warm-up: Reverse Trace Cache Reconstruction at
// 20/40/80/100% against SMARTS cache warming.
func (l *Lab) Figure5() (*FigureResult, error) {
	return l.figure("Figure 5: cache warm-up only", l.matrix([]warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 20, Cache: true},
		{Kind: warmup.KindReverse, Percent: 40, Cache: true},
		{Kind: warmup.KindReverse, Percent: 80, Cache: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true},
		{Kind: warmup.KindSMARTS, Cache: true},
	}))
}

// Figure6 compares branch-predictor-only warm-up: reverse reconstruction
// against SMARTS predictor warming.
func (l *Lab) Figure6() (*FigureResult, error) {
	return l.figure("Figure 6: branch prediction warm-up only", l.matrix([]warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 100, BPred: true},
		{Kind: warmup.KindSMARTS, BPred: true},
	}))
}

// Figure7 compares combined cache+predictor warm-up: R$BP percentages,
// fixed-period percentages, no warm-up, and SMARTS.
func (l *Lab) Figure7() (*FigureResult, error) {
	return l.figure("Figure 7: cache and branch prediction warm-up", l.matrix([]warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 40, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 80, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true},
		{Kind: warmup.KindFixed, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindFixed, Percent: 40, Cache: true, BPred: true},
		{Kind: warmup.KindFixed, Percent: 80, Cache: true, BPred: true},
		{Kind: warmup.KindNone},
		{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
	}))
}

// Figure8 reports the per-benchmark detail of Reverse State Reconstruction
// versus SMARTS (both warming cache and predictor).
func (l *Lab) Figure8() (*FigureResult, error) {
	return l.figure("Figure 8: Reverse State Reconstruction vs SMARTS (per benchmark)", l.matrix([]warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 40, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 80, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true},
		{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
	}))
}

// Figure9 regenerates the SimPoint comparison: a small interval size (the
// paper's 50K, chosen to match the sampled cluster sizes) and a large one
// (the paper's 10M), each with and without SMARTS warm-up while skipping
// between simulation points, against Reverse State Reconstruction at 20%.
// Per workload its cells are the four SimPoint configurations, labelled by
// configuration, then the R$BP (20%) reference.
func (l *Lab) Figure9() (*FigureResult, error) {
	const points = 30 // the paper uses 30 simulation points
	small := uint64(50_000)
	large := l.cfg.Total() / 20
	if f := l.cfg.Scale; f > 0 && f < 1 {
		small = uint64(float64(small) * f)
		if small == 0 {
			small = 1000
		}
	}
	smarts := warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}
	configs := []struct {
		label    string
		interval uint64
		warm     warmup.Spec
	}{
		{"50K", small, warmup.Spec{}},
		{"50K-SMARTS", small, smarts},
		{"10M", large, warmup.Spec{}},
		{"10M-SMARTS", large, smarts},
	}
	reference := strategyWarmup()
	var arms []arm
	for _, name := range l.cfg.workloadNames() {
		for _, c := range configs {
			arms = append(arms, arm{c.label, l.strategyJob(name, regimen.SimPoint{}.Name(),
				sampling.Regimen{ClusterSize: c.interval, NumClusters: points}, c.warm)})
		}
		arms = append(arms, arm{reference.Label(), l.sampledJob(name, reference)})
	}
	return l.figure("Figure 9: SimPoint comparison", arms)
}

// SweepPoint is one (percent, method-family) measurement of the warm-up
// percentage sweep.
type SweepPoint struct {
	Percent int
	Cell    Cell
}

// Sweep traces the accuracy/cost curve of Reverse State Reconstruction and
// fixed-period warming over a fine percentage grid on one workload — the
// continuous version of the paper's 20/40/80 sampling of the curve, exposing
// where the knee sits.
func (l *Lab) Sweep(name string, percents []int) (reverse, fixed []SweepPoint, err error) {
	if len(percents) == 0 {
		percents = []int{5, 10, 20, 30, 40, 60, 80, 100}
	}
	var arms []arm
	for _, p := range percents {
		rev := warmup.Spec{Kind: warmup.KindReverse, Percent: p, Cache: true, BPred: true}
		fp := warmup.Spec{Kind: warmup.KindFixed, Percent: p, Cache: true, BPred: true}
		arms = append(arms, arm{rev.Label(), l.sampledJob(name, rev)}, arm{fp.Label(), l.sampledJob(name, fp)})
	}
	cells, err := l.runArms(arms)
	if err != nil {
		return nil, nil, err
	}
	for i, p := range percents {
		reverse = append(reverse, SweepPoint{Percent: p, Cell: cells[2*i]})
		fixed = append(fixed, SweepPoint{Percent: p, Cell: cells[2*i+1]})
	}
	return reverse, fixed, nil
}

// Appendix runs the full Table 2 method matrix and returns every cell; the
// renderers split it into the paper's three appendix tables (confidence
// tests, relative error, time).
func (l *Lab) Appendix() ([]Cell, error) {
	return l.runArms(l.matrix(warmup.Matrix()))
}

// strategyWarmup is the warm-up every strategy arm runs with: the repo's
// reverse reconstruction at 20%, the same method the SMARTS/RSR comparisons
// use, so the head-to-head isolates the sampling design.
func strategyWarmup() warmup.Spec {
	return warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}
}

// StrategyHeadToHead runs every registered sampling strategy on the lab's
// workloads under one hot budget per workload and scores it against the true
// IPC: cells ordered workload-major, strategy-minor.
func (l *Lab) StrategyHeadToHead() ([]Cell, error) {
	spec := strategyWarmup()
	var arms []arm
	for _, name := range l.cfg.workloadNames() {
		for _, s := range regimen.Names() {
			arms = append(arms, arm{spec.Label(), l.strategyJob(name, s, RegimenFor(name), spec)})
		}
	}
	return l.runArms(arms)
}
