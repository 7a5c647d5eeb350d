package main

import (
	"fmt"
	"time"

	"rsr/internal/prog"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// The harness pins the host parallelism it was sized for: two cores, so two
// shards and two engine workers.
const (
	hostProcs = 2
	shards    = 2
	workers   = 2
)

// workloadDef is one benchmark workload. Inputs are generated: the programs
// are the repo's synthetic generators, and the seed passed on the command
// line places the clusters and orders the sweep's submissions.
type workloadDef struct {
	Name     string
	Why      string
	Programs []string
	Total    uint64
	Regimen  sampling.Regimen
	Shards   int  // > 1 runs the arms through the sharded pipeline
	Sweep    bool // engine sweep instead of solo arms
	TwoPhase bool // the traced run also times the two-phase-stratified regimen
}

// The sizes are the issue's, shrunk to the contract's time cap (one run has
// about 30 s for three set-ups plus the measurement): skip-heavy 20M -> 5M,
// hot-heavy 4M -> 2M, sweep 4M -> 1M. README.md gives the shrink order.
var workloads = []workloadDef{
	{
		Name:     "skip-heavy",
		Why:      "98% of instructions are cold skip, observation and reconstruction: funcsim, warmup, core and trace do the work, ooo about 15% of host time",
		Programs: []string{"gcc", "vortex", "vpr"},
		Total:    5_000_000,
		Regimen:  sampling.Regimen{ClusterSize: 2000, NumClusters: 50},
	},
	{
		Name:     "hot-heavy",
		Why:      "50% of instructions run in the ooo/mem/bpred timing model, warm-up layers do little: a warm-up optimisation must not move this",
		Programs: []string{"twolf", "parser", "perl"},
		Total:    2_000_000,
		Regimen:  sampling.Regimen{ClusterSize: 20000, NumClusters: 50},
		TwoPhase: true,
	},
	{
		Name:     "skip-heavy-sharded",
		Why:      "skip-heavy's inputs through Shards=2: the checkpoint pre-pass and capture-seal-adopt ingestion path instead of in-place observation",
		Programs: []string{"gcc", "vortex", "vpr"},
		Total:    5_000_000,
		Regimen:  sampling.Regimen{ClusterSize: 2000, NumClusters: 50},
		Shards:   shards,
	},
	{
		Name:     "sweep",
		Why:      "126 engine submissions (24% duplicates) from 2 clients: cold passes write the disk cache, re-sweeps only read and verify it",
		Programs: []string{"twolf", "gcc", "parser", "perl", "vortex", "vpr"},
		Total:    1_000_000,
		Regimen:  sampling.Regimen{ClusterSize: 2000, NumClusters: 20},
		Sweep:    true,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("bench: unknown workload %q", name)
}

// quick shrinks a workload to smoke-test size: a twentieth of the
// instructions and of the clusters, so the regimen about keeps its hot share.
func (w workloadDef) quick() workloadDef {
	w.Total /= 20
	w.Regimen.NumClusters /= 20
	return w
}

// arm is one warm-up method under comparison.
type arm struct {
	Key  string // metric-name suffix
	Spec warmup.Spec
}

var (
	armNone   = arm{"none", warmup.Spec{Kind: warmup.KindNone}}
	armSMARTS = arm{"smarts", warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}}
	armRSR20  = arm{"rsr20", warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}}
	arms      = []arm{armNone, armSMARTS, armRSR20}
)

// config is one benchmark invocation.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Quick   bool
	OutDir  string // traces and the sweep's cache directories go here
}

// another reports whether a measurement loop runs one more round: at least
// atLeast rounds, then until the deadline; -quick stops every loop at two.
func (c config) another(round, atLeast int, deadline time.Time) bool {
	if c.Quick {
		return round < 2
	}
	return round < atLeast || time.Now().Before(deadline)
}

// after is the deadline the given share of the run's seconds from start.
func (c config) after(start time.Time, share float64) time.Time {
	return start.Add(time.Duration(c.Seconds * share * float64(time.Second)))
}

// inputs are a workload's set-up product: the built programs and each one's
// true IPC from a full detailed simulation.
type inputs struct {
	programs []*prog.Program
	trueIPC  []float64
	fullSecs float64 // host seconds of the full simulations
}

// setUp builds the workload's programs and simulates each in full detail for
// its true IPC. This is the set-up cost setup_s reports.
func setUp(w workloadDef, m sampling.MachineConfig) (*inputs, error) {
	in := &inputs{}
	for _, name := range w.Programs {
		wl, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p := wl.Build()
		t0 := time.Now()
		fr, err := sampling.RunFull(p, m, w.Total)
		if err != nil {
			return nil, fmt.Errorf("bench: true IPC of %s: %w", name, err)
		}
		in.fullSecs += time.Since(t0).Seconds()
		if ipc := fr.Result.IPC(); !(ipc > 0) {
			return nil, fmt.Errorf("bench: true IPC of %s is %v", name, ipc)
		}
		in.programs = append(in.programs, p)
		in.trueIPC = append(in.trueIPC, fr.Result.IPC())
	}
	return in, nil
}

// fullNsPerInstr is the host cost of the set-up's full detailed simulations.
func (in *inputs) fullNsPerInstr(w workloadDef) float64 {
	return ratio(in.fullSecs*1e9, float64(w.Total)*float64(len(in.programs)))
}

// ipcErrPct is the mean over programs of |estimate - true| / true, in percent.
func ipcErrPct(est, truth []float64) float64 {
	var t float64
	for i := range est {
		d := est[i] - truth[i]
		if d < 0 {
			d = -d
		}
		t += d / truth[i]
	}
	return 100 * t / float64(len(est))
}
