// Package livepoints implements simulation sampling with live-points
// (Wenisch et al., ISPASS 2006 — the paper's reference [18]), the natural
// companion to its warm-up study: instead of re-executing every skip region
// on each sampled run, one capture pass stores, at every cluster start, the
// architectural state (as a register+dirty-page delta) and the warmed
// microarchitectural state (cache tags/LRU, predictor counters/BTB/RAS).
// Any number of replays — for example across candidate core configurations —
// then simulate only the clusters, skipping the functional fast-forwarding
// entirely.
//
// The capture pass warms state functionally (SMARTS-equivalent), so a replay
// under the capture machine's memory/predictor configuration reproduces a
// SMARTS-warmed sampled run exactly; the core (pipeline) configuration may
// vary freely between replays because no pipeline state is checkpointed —
// clusters start from a drained pipeline in both worlds.
package livepoints

import (
	"errors"
	"fmt"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/mem"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/sampling"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// Point is one live-point: everything needed to simulate one cluster.
type Point struct {
	// Start is the dynamic instruction index of the cluster.
	Start uint64
	// Arch is the architectural delta since the previous point (apply in
	// order).
	Arch *funcsim.Delta
	// Hier is the warmed cache state at the cluster start.
	Hier mem.HierarchyState
	// Pred is the warmed predictor state at the cluster start.
	Pred bpred.UnitState
}

// Set is a captured collection of live-points for one workload and regimen.
type Set struct {
	Program     *prog.Program
	Machine     sampling.MachineConfig
	ClusterSize uint64
	Points      []Point
	// CaptureElapsed is the one-time cost of the capture pass.
	CaptureElapsed time.Duration
}

// Capture runs one functional pass with SMARTS-equivalent warming, storing a
// live-point at every cluster start. The cluster instructions themselves are
// applied functionally too, so each point's state matches what a sampled
// SMARTS run would see.
func Capture(p *prog.Program, m sampling.MachineConfig, reg sampling.Regimen, total uint64, seed int64) (*Set, error) {
	starts, err := sampling.Positions(total, reg, seed)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	warm := warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}.New(hier, unit)
	fs := funcsim.New(p)
	// Anchor the delta chain: pages dirtied by data-segment installation are
	// captured by the first point's delta automatically (dirty flags are set
	// at install time), so nothing extra is needed here.

	set := &Set{Program: p, Machine: m, ClusterSize: reg.ClusterSize}
	buf := make([]trace.DynInst, funcsim.BatchSize)
	observe := warm.ObserveSkipBatch
	var pos uint64
	for _, start := range starts {
		skip := start - pos
		warm.BeginSkip(skip)
		ran, err := fs.RunBatches(skip, buf, observe, nil)
		if err != nil {
			return nil, fmt.Errorf("livepoints: capture skip: %w", err)
		}
		if ran != skip {
			return nil, errors.New("livepoints: workload halted during capture")
		}
		warm.EndSkip()

		set.Points = append(set.Points, Point{
			Start: start,
			Arch:  fs.CaptureDelta(),
			Hier:  hier.State(),
			Pred:  unit.State(),
		})

		// Execute the cluster functionally with warming so subsequent
		// points see post-cluster state, as a real sampled run would.
		warm.BeginSkip(reg.ClusterSize)
		ran, err = fs.RunBatches(reg.ClusterSize, buf, observe, nil)
		if err != nil {
			return nil, fmt.Errorf("livepoints: capture cluster: %w", err)
		}
		if ran != reg.ClusterSize {
			return nil, errors.New("livepoints: workload halted during capture")
		}
		warm.EndSkip()
		pos = start + reg.ClusterSize
	}
	set.CaptureElapsed = time.Since(begin)
	return set, nil
}

// ReplayResult is the outcome of replaying all points under one core
// configuration.
type ReplayResult struct {
	Clusters []sampling.ClusterStat
	Elapsed  time.Duration
}

// IPCEstimate aggregates cluster CPIs exactly as sampled runs do (mean CPI,
// then reciprocal), so replays are bit-identical with their sampled
// counterparts.
func (r *ReplayResult) IPCEstimate() float64 {
	run := sampling.RunResult{Clusters: r.Clusters}
	return run.IPCEstimate()
}

// Replay simulates every captured cluster under the given core
// configuration, restoring architectural and microarchitectural state from
// the live-points instead of re-executing skip regions. The memory and
// predictor configuration must match the capture machine.
func (s *Set) Replay(cpu ooo.Config) (*ReplayResult, error) {
	begin := time.Now()
	hier := mem.NewHierarchy(s.Machine.Hier)
	unit := bpred.NewUnit(s.Machine.Pred)
	sim := ooo.New(cpu, hier, unit)
	fs := funcsim.New(s.Program)

	res := &ReplayResult{}
	st := funcsim.NewStream(fs, nil)
	for i := range s.Points {
		pt := &s.Points[i]
		fs.ApplyDelta(pt.Arch)
		hier.SetState(pt.Hier)
		unit.SetState(pt.Pred)

		r := sim.SimulateSource(s.ClusterSize, st)
		if err := st.Err(); err != nil {
			return nil, fmt.Errorf("livepoints: replay cluster %d: %w", i, err)
		}
		res.Clusters = append(res.Clusters, sampling.ClusterStat{Start: pt.Start, Result: r})
	}
	res.Elapsed = time.Since(begin)
	return res, nil
}
