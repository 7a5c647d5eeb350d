package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"rsr/internal/engine"
	"rsr/internal/regimen"
	"rsr/internal/stats"
	"rsr/internal/warmup"
)

// StrategyCell is one (workload, sampling strategy) measurement of the
// regimen head-to-head: estimate quality plus the cost split between cheap
// profiling and detailed simulation.
type StrategyCell struct {
	Workload string
	Strategy string
	TrueIPC  float64
	Estimate float64
	RelErr   float64
	// CIRel is the relative half-width of the strategy's own confidence
	// interval (0 for point estimators like SimPoint).
	CIRel float64
	// Confident reports whether the strategy's interval covers the true IPC.
	Confident bool
	Elapsed   time.Duration
	// Regions is how many detailed regions the strategy simulated;
	// HotInstructions the detailed work, ProfileInstructions the cheap
	// functional selection work (0 for placement-only strategies).
	Regions             int
	HotInstructions     uint64
	ProfileInstructions uint64
}

// strategyWarmup is the warm-up every strategy arm runs with: the repo's
// reverse reconstruction at 20%, the same method the SMARTS/RSR comparisons
// use, so the head-to-head isolates the sampling design.
func strategyWarmup() warmup.Spec {
	return warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}
}

// StrategyHeadToHead runs every registered sampling strategy on the lab's
// workloads and scores it against the true IPC: one engine job per (workload,
// strategy), all submitted up front like Matrix's, true-IPC baselines first.
func (l *Lab) StrategyHeadToHead() ([]StrategyCell, error) {
	names, strategies := l.cfg.workloadNames(), regimen.Names()
	jobs := make([]engine.Job, 0, len(names)*(1+len(strategies)))
	for _, name := range names {
		jobs = append(jobs, l.fullJob(name))
	}
	for _, name := range names {
		for _, s := range strategies {
			jobs = append(jobs, l.strategyJob(name, s, RegimenFor(name), strategyWarmup()))
		}
	}
	results, err := l.runAll(jobs)
	if err != nil {
		return nil, err
	}
	cells := make([]StrategyCell, len(names)*len(strategies))
	for i := range cells {
		w := i / len(strategies)
		trueIPC, out := results[w].Full.Result.IPC(), results[len(names)+i].Outcome
		cells[i] = StrategyCell{
			Workload:            names[w],
			Strategy:            out.Strategy,
			TrueIPC:             trueIPC,
			Estimate:            out.Estimate.IPC,
			RelErr:              stats.RelErr(out.Estimate.IPC, trueIPC),
			CIRel:               ciRel(out.Estimate),
			Confident:           out.Estimate.Confident(trueIPC),
			Elapsed:             out.Elapsed,
			Regions:             len(out.Regions),
			HotInstructions:     out.HotInstructions,
			ProfileInstructions: out.Plan.ProfileInstructions,
		}
	}
	return cells, nil
}

// ciRel is the interval half-width relative to its mean, comparable across
// CPI- and IPC-space estimators.
func ciRel(e regimen.Estimate) float64 {
	if e.CI.Mean == 0 {
		return 0
	}
	r := e.CI.Err / e.CI.Mean
	if r < 0 {
		r = -r
	}
	return r
}

// StrategyAverage is the per-strategy mean over workloads.
type StrategyAverage struct {
	Strategy         string
	MeanRelErr       float64
	MeanCIRel        float64
	ConfidentShare   float64
	MeanTime         time.Duration
	MeanHotInstr     float64
	MeanProfileInstr float64
}

// AverageByStrategy aggregates head-to-head cells by strategy, preserving
// first-appearance order.
func AverageByStrategy(cells []StrategyCell) []StrategyAverage {
	order := []string{}
	acc := map[string]*StrategyAverage{}
	n := map[string]int{}
	for _, c := range cells {
		a, ok := acc[c.Strategy]
		if !ok {
			a = &StrategyAverage{Strategy: c.Strategy}
			acc[c.Strategy] = a
			order = append(order, c.Strategy)
		}
		a.MeanRelErr += c.RelErr
		a.MeanCIRel += c.CIRel
		if c.Confident {
			a.ConfidentShare++
		}
		a.MeanTime += c.Elapsed
		a.MeanHotInstr += float64(c.HotInstructions)
		a.MeanProfileInstr += float64(c.ProfileInstructions)
		n[c.Strategy]++
	}
	out := make([]StrategyAverage, 0, len(order))
	for _, name := range order {
		a := acc[name]
		k := float64(n[name])
		a.MeanRelErr /= k
		a.MeanCIRel /= k
		a.ConfidentShare /= k
		a.MeanTime = time.Duration(float64(a.MeanTime) / k)
		a.MeanHotInstr /= k
		a.MeanProfileInstr /= k
		out = append(out, *a)
	}
	return out
}

// RenderStrategies formats the head-to-head as a per-workload grid plus the
// per-strategy averages.
func RenderStrategies(cells []StrategyCell) string {
	var b strings.Builder
	b.WriteString("Sampling-strategy head-to-head (same hot budget per workload; reverse 20% warm-up)\n")
	fmt.Fprintf(&b, "%-10s %-22s %9s %9s %8s %7s %5s %12s %12s %10s\n",
		"workload", "strategy", "true", "estimate", "relerr", "ci±", "conf", "hot instr", "prof instr", "time")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s %-22s %9.4f %9.4f %7.2f%% %6.2f%% %5v %12d %12d %10s\n",
			c.Workload, c.Strategy, c.TrueIPC, c.Estimate, 100*c.RelErr, 100*c.CIRel,
			c.Confident, c.HotInstructions, c.ProfileInstructions, roundDur(c.Elapsed))
	}
	b.WriteString("\nPer-strategy averages\n")
	fmt.Fprintf(&b, "%-22s %9s %8s %10s %14s %14s %10s\n",
		"strategy", "relerr", "ci±", "confident", "hot instr", "prof instr", "time")
	for _, a := range AverageByStrategy(cells) {
		fmt.Fprintf(&b, "%-22s %8.2f%% %7.2f%% %9.0f%% %14.0f %14.0f %10s\n",
			a.Strategy, 100*a.MeanRelErr, 100*a.MeanCIRel, 100*a.ConfidentShare,
			a.MeanHotInstr, a.MeanProfileInstr, roundDur(a.MeanTime))
	}
	return b.String()
}

// WriteStrategiesCSV exports head-to-head cells as CSV.
func WriteStrategiesCSV(w io.Writer, cells []StrategyCell) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"workload", "strategy", "true_ipc", "estimate", "rel_err", "ci_rel",
		"confident", "regions", "hot_instructions", "profile_instructions", "elapsed_ns",
	}); err != nil {
		return err
	}
	for _, c := range cells {
		if err := cw.Write([]string{
			c.Workload, c.Strategy, fmtF(c.TrueIPC), fmtF(c.Estimate), fmtF(c.RelErr), fmtF(c.CIRel),
			fmt.Sprint(c.Confident), fmt.Sprint(c.Regions),
			fmt.Sprint(c.HotInstructions), fmt.Sprint(c.ProfileInstructions),
			fmt.Sprint(c.Elapsed.Nanoseconds()),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
