package experiments

import (
	"fmt"
	"sort"
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
// per-workload relative-error detail.
func (f *FigureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-12s %12s %12s %14s %14s\n",
		"method", "avg RE", "avg time", "warm ops", "recon ops")
	for _, a := range f.Averages {
		fmt.Fprintf(&b, "%-12s %11.2f%% %12s %14.0f %14.0f\n",
			a.Method, 100*a.MeanRelErr, roundDur(a.MeanTime), a.MeanWarmOps, a.MeanReconOps)
	}
	b.WriteString("\nper-workload relative error:\n")
	b.WriteString(renderCellGrid(f.Cells, func(c Cell) string {
		return fmt.Sprintf("%.4f", c.RelErr)
	}))
	b.WriteString("\nper-workload time:\n")
	b.WriteString(renderCellGrid(f.Cells, func(c Cell) string {
		return roundDur(c.Elapsed)
	}))
	return b.String()
}

// renderCellGrid prints methods as rows and workloads as columns.
func renderCellGrid(cells []Cell, val func(Cell) string) string {
	methods := []string{}
	workloads := []string{}
	seenM := map[string]bool{}
	seenW := map[string]bool{}
	grid := map[string]map[string]string{}
	for _, c := range cells {
		if !seenM[c.Method] {
			seenM[c.Method] = true
			methods = append(methods, c.Method)
			grid[c.Method] = map[string]string{}
		}
		if !seenW[c.Workload] {
			seenW[c.Workload] = true
			workloads = append(workloads, c.Workload)
		}
		grid[c.Method][c.Workload] = val(c)
	}
	sort.Strings(workloads)

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "")
	for _, w := range workloads {
		fmt.Fprintf(&b, " %9s", w)
	}
	b.WriteString("\n")
	for _, m := range methods {
		fmt.Fprintf(&b, "%-12s", m)
		for _, w := range workloads {
			fmt.Fprintf(&b, " %9s", grid[m][w])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFigure9 formats the SimPoint comparison.
func RenderFigure9(r *Figure9Result) string {
	var b strings.Builder
	b.WriteString("Figure 9: SimPoint comparison\n")
	fmt.Fprintf(&b, "%-12s %-10s %10s %10s %9s %12s %8s\n",
		"config", "workload", "true IPC", "estimate", "RE", "sim time", "points")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-10s %10.4f %10.4f %8.2f%% %12s %8d\n",
			row.Config, row.Workload, row.TrueIPC, row.Estimate, 100*row.RelErr,
			roundDur(row.SimElapsed), row.Points)
	}
	// Config averages plus the sampled reference.
	b.WriteString("\naverages:\n")
	type agg struct {
		re   float64
		time time.Duration
		n    int
	}
	order := []string{}
	accs := map[string]*agg{}
	for _, row := range r.Rows {
		a, ok := accs[row.Config]
		if !ok {
			a = &agg{}
			accs[row.Config] = a
			order = append(order, row.Config)
		}
		a.re += row.RelErr
		a.time += row.SimElapsed
		a.n++
	}
	for _, cfg := range order {
		a := accs[cfg]
		fmt.Fprintf(&b, "%-12s avg RE %6.2f%%  avg sim time %s\n",
			cfg, 100*a.re/float64(a.n), roundDur(time.Duration(int(a.time)/a.n)))
	}
	var re float64
	var tm time.Duration
	for _, c := range r.Reference {
		re += c.RelErr
		tm += c.Elapsed
	}
	if n := len(r.Reference); n > 0 {
		fmt.Fprintf(&b, "%-12s avg RE %6.2f%%  avg sim time %s\n",
			"R$BP (20%)", 100*re/float64(n), roundDur(time.Duration(int(tm)/n)))
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
	b.WriteString(renderCellGrid(cells, func(c Cell) string {
		return fmt.Sprintf("%.4f", c.RelErr)
	}))
	b.WriteString("\nAppendix: time\n")
	b.WriteString(renderCellGrid(cells, func(c Cell) string {
		return roundDur(c.Elapsed)
	}))
	return b.String()
}

// RenderCells formats a flat cell list (used by the remaining ablations).
func RenderCells(title string, cells []Cell) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-10s %-22s %9s %8s %6s %12s\n",
		"workload", "method", "estimate", "RE", "conf", "time")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s %-22s %9.4f %7.2f%% %6v %12s\n",
			c.Workload, c.Method, c.Estimate, 100*c.RelErr, c.Confident, roundDur(c.Elapsed))
	}
	return b.String()
}

// RenderBusAblation formats the bus-contention ablation.
func RenderBusAblation(rows []BusAblationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: bus arbitration and contention\n")
	fmt.Fprintf(&b, "%-10s %12s %14s %10s\n", "workload", "contended", "uncontended", "inflation")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.4f %14.4f %+9.1f%%\n",
			r.Workload, r.IPCContended, r.IPCUncontended, 100*r.Inflation)
	}
	return b.String()
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
