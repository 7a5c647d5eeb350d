package experiments

import (
	"fmt"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/mem"
	"rsr/internal/reuse"
	"rsr/internal/sampling"
	"rsr/internal/stats"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// AblationCell extends Cell with an extra cost column for methods whose
// price is partly paid outside the sampled run (MRRL/BLRL profiling).
type AblationCell struct {
	Cell
	// ProfileElapsed is profiling time spent before the run (zero for
	// profile-free methods).
	ProfileElapsed time.Duration
}

// AblationReuse compares the profiling-based warm-up methods the paper cites
// (§2) against Reverse State Reconstruction and SMARTS: MRRL and BLRL at the
// given percentile, R$BP (20%), and S$BP. The returned cells carry the
// profiling cost MRRL/BLRL pay and RSR avoids — and which pins their cluster
// positions, the paper's main qualitative argument for RSR.
func (l *Lab) AblationReuse(percentile float64) ([]AblationCell, error) {
	var out []AblationCell
	for _, name := range l.cfg.workloadNames() {
		full, err := l.Full(name)
		if err != nil {
			return nil, err
		}
		trueIPC := full.Result.IPC()
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		reg := RegimenFor(name)
		starts, err := sampling.Positions(l.cfg.Total(), reg, l.cfg.Seed)
		if err != nil {
			return nil, err
		}
		regions, err := reg.Regions(l.cfg.Total(), l.cfg.Seed)
		if err != nil {
			return nil, err
		}

		for _, kind := range []reuse.Kind{reuse.MRRL, reuse.BLRL} {
			pstart := time.Now()
			win, err := reuse.Profile(w.Build(), starts, reg.ClusterSize, l.cfg.Total(), percentile, kind)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s profiling: %w", name, kind, err)
			}
			pElapsed := time.Since(pstart)
			label := fmt.Sprintf("%s (%.0f%%)", kind, percentile)
			// The windowed methods need the profile, which no warmup.Spec
			// — and so no engine.Job — carries: these arms hand the walker a
			// method factory themselves, with the lab's shard count but
			// outside its engine (no -parallel, -cachedir or -cluster).
			res, err := sampling.RunRegions(w.Build(), l.machine, regions,
				func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
					return warmup.NewWindowed(label, h, u, win.PerRegion)
				},
				sampling.Options{Shards: l.cfg.Shards, Instr: sampling.NewInstruments(l.cfg.Metrics), Tracer: l.cfg.Tracer})
			if err != nil {
				return nil, err
			}
			out = append(out, AblationCell{
				Cell:           cellOf(name, trueIPC, res),
				ProfileElapsed: pElapsed,
			})
		}

		for _, spec := range []warmup.Spec{
			{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
			{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
		} {
			cell, err := l.Run(name, spec)
			if err != nil {
				return nil, err
			}
			out = append(out, AblationCell{Cell: cell})
		}
	}
	return out, nil
}

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
