package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// RenderTable1 formats Table 1 rows.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: True IPC and sampling regimen data for each workload\n")
	fmt.Fprintf(&b, "%-10s %10s %14s %10s %14s %12s\n",
		"workload", "true IPC", "instructions", "clusters", "cluster size", "full time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.4f %14d %10d %14d %12s\n",
			r.Workload, r.TrueIPC, r.Total, r.NumClusters, r.ClusterSize, roundDur(r.FullElapsed))
	}
	return b.String()
}

// Render formats a figure: the method-average summary followed by the
// per-workload relative-error detail. The frontier also reports each
// method's paired added error over S$BP.
func (f *FigureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	if f.ID == "frontier" {
		b.WriteString("added err: mean per-cluster |CPI - CPI(S$BP)| on the same clusters, % of S$BP's mean cluster CPI\n" +
			"times are the engine's: replayed where the trace store holds the placement (it refuses mcf's, so mcf runs fresh)\n")
		fmt.Fprintf(&b, "%-12s %12s %12s %12s %14s %14s\n",
			"method", "added err", "avg RE", "avg time", "warm ops", "recon ops")
		for _, a := range f.Averages {
			fmt.Fprintf(&b, "%-12s %12s %11.2f%% %12s %14.0f %14.0f\n", a.Method, fmtPct(a.MeanAddedErrPct),
				100*a.MeanRelErr, roundDur(a.MeanTime), a.MeanWarmOps, a.MeanReconOps)
		}
		b.WriteString("\nper-workload paired added error (%):\n")
		b.WriteString(renderCellGrid(f.Cells, func(c Cell) string { return fmtPct(c.AddedErrPct) }))
	} else {
		fmt.Fprintf(&b, "%-12s %12s %12s %14s %14s\n",
			"method", "avg RE", "avg time", "warm ops", "recon ops")
		for _, a := range f.Averages {
			fmt.Fprintf(&b, "%-12s %11.2f%% %12s %14.0f %14.0f\n",
				a.Method, 100*a.MeanRelErr, roundDur(a.MeanTime), a.MeanWarmOps, a.MeanReconOps)
		}
	}
	b.WriteString("\nper-workload relative error:\n")
	b.WriteString(renderCellGrid(f.Cells, relErr))
	b.WriteString("\nper-workload time:\n")
	b.WriteString(renderCellGrid(f.Cells, elapsed))
	return b.String()
}

// renderCellGrid prints methods as rows, in first-appearance order, and
// workloads as columns, sorted.
func renderCellGrid(cells []Cell, val func(Cell) string) string {
	var methods, workloads []string
	grid := map[[2]string]string{} // {method, workload} → value
	for _, c := range cells {
		if !slices.Contains(methods, c.Method) {
			methods = append(methods, c.Method)
		}
		if !slices.Contains(workloads, c.Workload) {
			workloads = append(workloads, c.Workload)
		}
		grid[[2]string{c.Method, c.Workload}] = val(c)
	}
	slices.Sort(workloads)

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "")
	for _, w := range workloads {
		fmt.Fprintf(&b, " %9s", w)
	}
	b.WriteString("\n")
	for _, m := range methods {
		fmt.Fprintf(&b, "%-12s", m)
		for _, w := range workloads {
			fmt.Fprintf(&b, " %9s", grid[[2]string{m, w}])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFigure9 formats the SimPoint comparison: one row per SimPoint cell,
// then the per-configuration averages and the sampled reference's. Sim time
// leaves out SimPoint's offline profile, as in the paper.
func RenderFigure9(f *FigureResult) string {
	var b strings.Builder
	b.WriteString(f.Title + "\n")
	fmt.Fprintf(&b, "%-12s %-10s %10s %10s %9s %12s %8s\n",
		"config", "workload", "true IPC", "estimate", "RE", "sim time", "points")
	for _, c := range f.Cells {
		if c.Strategy == "" {
			continue // the R$BP (20%) reference is reported in the averages only
		}
		fmt.Fprintf(&b, "%-12s %-10s %10.4f %10.4f %8.2f%% %12s %8d\n",
			c.Method, c.Workload, c.TrueIPC, c.Estimate, 100*c.RelErr,
			roundDur(c.Elapsed-c.Selection), c.Regions)
	}
	b.WriteString("\naverages:\n")
	for _, a := range f.Averages {
		fmt.Fprintf(&b, "%-12s avg RE %6.2f%%  avg sim time %s\n",
			a.Method, 100*a.MeanRelErr, roundDur(a.MeanTime-a.MeanSelection))
	}
	return b.String()
}

// RenderStrategies formats the head-to-head as a per-workload grid plus the
// per-strategy averages.
func RenderStrategies(cells []Cell) string {
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
	for _, a := range averageBy(cells, byStrategy) {
		fmt.Fprintf(&b, "%-22s %8.2f%% %7.2f%% %9.0f%% %14.0f %14.0f %10s\n",
			a.Method, 100*a.MeanRelErr, 100*a.MeanCIRel, 100*a.ConfidentShare,
			a.MeanHotInstr, a.MeanProfileInstr, roundDur(a.MeanTime))
	}
	return b.String()
}

// RenderAppendix formats the three appendix tables from the full matrix.
func RenderAppendix(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Appendix: confidence tests (95% interval covers true IPC)\n")
	b.WriteString(renderCellGrid(cells, func(c Cell) string {
		if c.Confident {
			return "yes"
		}
		return "no"
	}))
	b.WriteString("\nAppendix: relative error\n")
	b.WriteString(renderCellGrid(cells, relErr))
	b.WriteString("\nAppendix: time\n")
	b.WriteString(renderCellGrid(cells, elapsed))
	return b.String()
}

// relErr and elapsed are the grid cells of the relative-error and time grids.
func relErr(c Cell) string  { return fmt.Sprintf("%.4f", c.RelErr) }
func elapsed(c Cell) string { return roundDur(c.Elapsed) }

// fmtPct prints a paired added error, or "-" for an unpaired one.
func fmtPct(p *float64) string {
	if p == nil {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", *p)
}

func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(100 * time.Microsecond).String()
	default:
		return d.String()
	}
}
