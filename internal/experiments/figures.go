package experiments

import (
	"time"

	"rsr/internal/engine"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/stats"
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

func (l *Lab) figure(title string, specs []warmup.Spec) (*FigureResult, error) {
	cells, err := l.Matrix(specs)
	if err != nil {
		return nil, err
	}
	return &FigureResult{Title: title, Cells: cells, Averages: AverageByMethod(cells)}, nil
}

// Figure5 compares cache-only warm-up: Reverse Trace Cache Reconstruction at
// 20/40/80/100% against SMARTS cache warming.
func (l *Lab) Figure5() (*FigureResult, error) {
	return l.figure("Figure 5: cache warm-up only", []warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 20, Cache: true},
		{Kind: warmup.KindReverse, Percent: 40, Cache: true},
		{Kind: warmup.KindReverse, Percent: 80, Cache: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true},
		{Kind: warmup.KindSMARTS, Cache: true},
	})
}

// Figure6 compares branch-predictor-only warm-up: reverse reconstruction
// against SMARTS predictor warming.
func (l *Lab) Figure6() (*FigureResult, error) {
	return l.figure("Figure 6: branch prediction warm-up only", []warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 100, BPred: true},
		{Kind: warmup.KindSMARTS, BPred: true},
	})
}

// Figure7 compares combined cache+predictor warm-up: R$BP percentages,
// fixed-period percentages, no warm-up, and SMARTS.
func (l *Lab) Figure7() (*FigureResult, error) {
	return l.figure("Figure 7: cache and branch prediction warm-up", []warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 40, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 80, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true},
		{Kind: warmup.KindFixed, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindFixed, Percent: 40, Cache: true, BPred: true},
		{Kind: warmup.KindFixed, Percent: 80, Cache: true, BPred: true},
		{Kind: warmup.KindNone},
		{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
	})
}

// Figure8 reports the per-benchmark detail of Reverse State Reconstruction
// versus SMARTS (both warming cache and predictor).
func (l *Lab) Figure8() (*FigureResult, error) {
	return l.figure("Figure 8: Reverse State Reconstruction vs SMARTS (per benchmark)", []warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 40, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 80, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true},
		{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
	})
}

// SimPointRow is one (configuration, workload) SimPoint measurement.
type SimPointRow struct {
	Config     string
	Workload   string
	TrueIPC    float64
	Estimate   float64
	RelErr     float64
	SimElapsed time.Duration
	HotInsts   uint64
	Points     int
}

// Figure9Result holds the SimPoint comparison plus the sampled reference.
type Figure9Result struct {
	Rows []SimPointRow
	// Reference is R$BP (20%) on the same workloads, the sampled technique
	// SimPoint is compared against.
	Reference []Cell
}

// Figure9 regenerates the SimPoint comparison: a small interval size (the
// paper's 50K, chosen to match the sampled cluster sizes) and a large one
// (the paper's 10M), each with and without SMARTS warm-up while skipping
// between simulation points, against Reverse State Reconstruction at 20%.
func (l *Lab) Figure9() (*Figure9Result, error) {
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

	// Every job of the figure up front: the true IPCs, then per workload the
	// four SimPoint arms and the R$BP (20%) reference.
	names := l.cfg.workloadNames()
	stride := len(configs) + 1
	jobs := make([]engine.Job, 0, len(names)*(1+stride))
	for _, name := range names {
		jobs = append(jobs, l.fullJob(name))
	}
	for _, name := range names {
		for _, c := range configs {
			jobs = append(jobs, l.strategyJob(name, regimen.SimPoint{}.Name(),
				sampling.Regimen{ClusterSize: c.interval, NumClusters: points}, c.warm))
		}
		jobs = append(jobs, l.sampledJob(name, warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}))
	}
	results, err := l.runAll(jobs)
	if err != nil {
		return nil, err
	}

	var res Figure9Result
	for w, name := range names {
		trueIPC := results[w].Full.Result.IPC()
		arms := results[len(names)+w*stride:][:stride]
		for i, c := range configs {
			out := arms[i].Outcome
			res.Rows = append(res.Rows, SimPointRow{
				Config:   c.label,
				Workload: name,
				TrueIPC:  trueIPC,
				Estimate: out.Estimate.IPC,
				RelErr:   stats.RelErr(out.Estimate.IPC, trueIPC),
				// The offline profile is not simulation time, as in the paper.
				SimElapsed: out.Elapsed - arms[i].Selection,
				HotInsts:   out.HotInstructions,
				Points:     len(out.Regions),
			})
		}
		res.Reference = append(res.Reference, cellOf(name, trueIPC, arms[len(configs)].Sampled))
	}
	return &res, nil
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
	jobs := []engine.Job{l.fullJob(name)}
	for _, p := range percents {
		jobs = append(jobs,
			l.sampledJob(name, warmup.Spec{Kind: warmup.KindReverse, Percent: p, Cache: true, BPred: true}),
			l.sampledJob(name, warmup.Spec{Kind: warmup.KindFixed, Percent: p, Cache: true, BPred: true}))
	}
	results, err := l.runAll(jobs)
	if err != nil {
		return nil, nil, err
	}
	trueIPC := results[0].Full.Result.IPC()
	for i, p := range percents {
		reverse = append(reverse, SweepPoint{Percent: p, Cell: cellOf(name, trueIPC, results[1+2*i].Sampled)})
		fixed = append(fixed, SweepPoint{Percent: p, Cell: cellOf(name, trueIPC, results[2+2*i].Sampled)})
	}
	return reverse, fixed, nil
}

// Appendix runs the full Table 2 method matrix and returns every cell; the
// renderers split it into the paper's three appendix tables (confidence
// tests, relative error, time).
func (l *Lab) Appendix() ([]Cell, error) {
	return l.Matrix(warmup.Matrix())
}
