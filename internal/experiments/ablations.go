package experiments

import (
	"rsr/internal/sampling"
	"rsr/internal/stats"
	"rsr/internal/warmup"
)

// AblationInference compares Reverse predictor reconstruction with and
// without the Figure 3 counter-inference rule (unresolved entries left
// stale), isolating how much accuracy the a-priori table contributes.
func (l *Lab) AblationInference() ([]Cell, error) {
	return l.Matrix([]warmup.Spec{
		{Kind: warmup.KindReverse, Percent: 100, BPred: true},
		{Kind: warmup.KindReverse, Percent: 100, BPred: true, NoCounterInference: true},
		{Kind: warmup.KindSMARTS, BPred: true},
	})
}

// AblationBusContention measures how much of the timing model's behaviour
// comes from bus arbitration: true IPC with and without bus queueing.
type BusAblationRow struct {
	Workload       string
	IPCContended   float64
	IPCUncontended float64
	// Inflation is the IPC gain from removing contention.
	Inflation float64
}

// AblationBusContention runs full detailed simulations with arbitration
// disabled and compares against the contended baseline.
func (l *Lab) AblationBusContention() ([]BusAblationRow, error) {
	uncontended := l.machine
	uncontended.Hier.L1Bus.NoContention = true
	uncontended.Hier.MemBus.NoContention = true
	ipcs, err := l.trueIPCPairs(uncontended)
	if err != nil {
		return nil, err
	}
	var rows []BusAblationRow
	for i, name := range l.cfg.workloadNames() {
		a, b := ipcs[i][0], ipcs[i][1]
		rows = append(rows, BusAblationRow{
			Workload:       name,
			IPCContended:   a,
			IPCUncontended: b,
			Inflation:      b/a - 1,
		})
	}
	return rows, nil
}

// PrefetchAblationRow compares true IPC with and without the next-line
// prefetcher (an extension knob; the paper's machine has none).
type PrefetchAblationRow struct {
	Workload    string
	IPCBaseline float64
	IPCPrefetch float64
	Speedup     float64
}

// AblationPrefetch measures the sequential prefetcher's effect on each
// workload's true IPC.
func (l *Lab) AblationPrefetch() ([]PrefetchAblationRow, error) {
	pf := l.machine
	pf.Hier.NextLinePrefetch = true
	ipcs, err := l.trueIPCPairs(pf)
	if err != nil {
		return nil, err
	}
	var rows []PrefetchAblationRow
	for i, name := range l.cfg.workloadNames() {
		a, b := ipcs[i][0], ipcs[i][1]
		rows = append(rows, PrefetchAblationRow{
			Workload:    name,
			IPCBaseline: a,
			IPCPrefetch: b,
			Speedup:     b / a,
		})
	}
	return rows, nil
}

// cellOf scores a finished run against a known true IPC.
func cellOf(name string, trueIPC float64, res *sampling.RunResult) Cell {
	est := res.IPCEstimate()
	return Cell{
		Workload:         name,
		Method:           res.Method,
		TrueIPC:          trueIPC,
		Estimate:         est,
		RelErr:           stats.RelErr(est, trueIPC),
		Confident:        res.ConfidenceContains(trueIPC),
		Elapsed:          res.Elapsed,
		Work:             res.Work,
		HotInstructions:  res.HotInstructions,
		FuncInstructions: res.FuncInstructions,
	}
}
