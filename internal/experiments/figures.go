package experiments

import (
	"fmt"
	"slices"
	"time"

	"rsr/internal/engine"
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
// workload") by running the full detailed simulations, all submitted at once.
func (l *Lab) Table1() ([]Table1Row, error) {
	names := l.cfg.workloadNames()
	jobs := make([]engine.Job, len(names))
	for i, name := range names {
		jobs[i] = l.fullJob(name)
	}
	results, err := l.runAll(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(names))
	for i, name := range names {
		full := results[i].Full
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
	ID       string // the rsr command that prints it
	Title    string
	Cells    []Cell
	Averages []MethodAverage
}

// figure runs a figure's arms and bundles the cells with their per-label
// averages.
func (l *Lab) figure(id, title string, arms []arm) (*FigureResult, error) {
	cells, err := l.runArms(arms)
	if err != nil {
		return nil, err
	}
	return &FigureResult{ID: id, Title: title, Cells: cells, Averages: averageBy(cells, byMethod)}, nil
}

// rbp, fp and sbp are the cache-and-predictor specs of reverse
// reconstruction, fixed-period warming and SMARTS.
func rbp(p int) warmup.Spec {
	return warmup.Spec{Kind: warmup.KindReverse, Percent: p, Cache: true, BPred: true}
}
func fp(p int) warmup.Spec {
	return warmup.Spec{Kind: warmup.KindFixed, Percent: p, Cache: true, BPred: true}
}

var sbp = warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}

// figures is every figure that crosses the lab's workloads with a list of
// warm-up specs: its rsr command, its title and its specs.
var figures = []struct {
	id, title string
	specs     []warmup.Spec
}{
	{"fig5", "Figure 5: cache warm-up only", []warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 20, Cache: true},
		{Kind: warmup.KindReverse, Percent: 40, Cache: true},
		{Kind: warmup.KindReverse, Percent: 80, Cache: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true},
		{Kind: warmup.KindSMARTS, Cache: true},
	}},
	{"fig6", "Figure 6: branch prediction warm-up only", []warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 100, BPred: true},
		{Kind: warmup.KindSMARTS, BPred: true},
	}},
	{"fig7", "Figure 7: cache and branch prediction warm-up", []warmup.Spec{
		rbp(20), rbp(40), rbp(80), rbp(100), fp(20), fp(40), fp(80), {Kind: warmup.KindNone}, sbp,
	}},
	{"fig8", "Figure 8: Reverse State Reconstruction vs SMARTS (per benchmark)", []warmup.Spec{
		rbp(20), rbp(40), rbp(80), rbp(100), sbp,
	}},
	{"frontier", "Frontier: R$BP and FP at 5-100% beside every Table 2 method", frontierSpecs()},
}

// frontierPercents are the frontier's warm-up windows.
var frontierPercents = []int{5, 10, 20, 30, 40, 60, 80, 100}

// frontierSpecs is R$BP at every frontier percentage, then FP, then the rest
// of the warm-up method matrix: one spec, and so one label, per arm.
func frontierSpecs() []warmup.Spec {
	var specs []warmup.Spec
	for _, family := range []func(int) warmup.Spec{rbp, fp} {
		for _, p := range frontierPercents {
			specs = append(specs, family(p))
		}
	}
	for _, s := range warmup.Matrix() {
		if !slices.Contains(specs, s) {
			specs = append(specs, s)
		}
	}
	return specs
}

// Figure runs the spec-matrix figure id: fig5, fig6, fig7, fig8 or frontier.
func (l *Lab) Figure(id string) (*FigureResult, error) {
	for _, f := range figures {
		if f.id == id {
			return l.figure(f.id, f.title, l.matrix(f.specs))
		}
	}
	return nil, fmt.Errorf("experiments: no figure %q", id)
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
	configs := []struct {
		label    string
		interval uint64
		warm     warmup.Spec
	}{
		{"50K", small, warmup.Spec{}},
		{"50K-SMARTS", small, sbp},
		{"10M", large, warmup.Spec{}},
		{"10M-SMARTS", large, sbp},
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
	return l.figure("fig9", "Figure 9: SimPoint comparison", arms)
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
