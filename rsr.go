// Package rsr is a from-scratch reproduction of "Reverse State
// Reconstruction for Sampled Microarchitectural Simulation" (Bryan, Rosier,
// Conte — ISPASS 2007).
//
// The package is the public facade over the full simulation stack in
// internal/: a small RISC ISA and functional simulator, the paper's memory
// hierarchy (WTNA L1I/L1D, WBWA L2, two shared buses), a 64K-entry Gshare
// predictor with BTB and return address stack, a cycle-level out-of-order
// superscalar timing model, cluster-sampled simulation with pluggable
// warm-up methods — no warm-up, fixed-period, SMARTS full-functional
// warming, and the paper's contribution, Reverse State Reconstruction — a
// SimPoint baseline, and an experiment harness that regenerates every table
// and figure of the paper's evaluation.
//
// Quick start:
//
//	w, _ := rsr.WorkloadByName("twolf")
//	full, _ := rsr.RunFull(w.Build(), rsr.DefaultMachine(), 2_000_000)
//	sampled, _ := rsr.RunSampled(w.Build(), rsr.DefaultMachine(),
//	    rsr.Regimen{ClusterSize: 2000, NumClusters: 50}, 2_000_000, 1,
//	    rsr.ReverseWarmup(20))
//	fmt.Println(full.Result.IPC(), sampled.IPCEstimate())
//
// # Concurrency
//
// RunFull and RunSampled build all mutable simulation state (hierarchy,
// predictor, timing model, functional simulator) fresh per call and treat
// the Program as read-only, so any number of runs may execute concurrently;
// each run is deterministic in its inputs, so concurrency never changes
// results. The Engine builds on this contract to schedule runs across a
// bounded worker pool with a content-addressed result cache:
//
//	eng := rsr.NewEngine(rsr.EngineOptions{CacheDir: "/tmp/rsr-cache"})
//	defer eng.Close()
//	res, _ := eng.Run(ctx, rsr.EngineJob{Kind: rsr.JobSampled, Workload: "twolf",
//	    Machine: rsr.DefaultMachine(), Total: 2_000_000, Seed: 1,
//	    Regimen: rsr.Regimen{ClusterSize: 2000, NumClusters: 50},
//	    Warmup: rsr.ReverseWarmup(20)})
package rsr

import (
	"time"

	"rsr/internal/engine"
	"rsr/internal/experiments"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/simpoint"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// Program is an immutable instruction stream plus initial data image,
// produced by the workload generators (or by prog.Builder for custom
// workloads via the examples).
type Program = prog.Program

// Workload names one of the nine SPEC2000-like synthetic benchmarks.
type Workload = workload.Workload

// Workloads returns all benchmarks in reporting order.
func Workloads() []Workload { return workload.All() }

// WorkloadNames returns the benchmark names in reporting order.
func WorkloadNames() []string { return workload.Names() }

// WorkloadByName looks a benchmark up by name.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// CustomWorkloadConfig parameterizes a synthetic workload along the axes
// that govern warm-up sensitivity: working-set size, branch bias, call
// depth, and memory density.
type CustomWorkloadConfig = workload.CustomConfig

// CustomWorkload builds a parameterized synthetic workload (see
// examples/sensitivity for a working-set sweep).
func CustomWorkload(cfg CustomWorkloadConfig) (*Program, error) { return workload.Custom(cfg) }

// Machine bundles the simulated processor: core, memory hierarchy, and
// branch predictor configuration.
type Machine = sampling.MachineConfig

// DefaultMachine returns the paper's machine (§4): 8-wide fetch/dispatch,
// 4-wide issue/retire, 64-entry window, 64 KiB L1I + 32 KiB L1D (WTNA),
// 1 MiB WBWA L2, shared buses, 64K-entry Gshare, 4K-entry BTB, 8-entry RAS.
func DefaultMachine() Machine { return sampling.DefaultMachine() }

// Regimen is a cluster-sampling design: cluster size and cluster count.
type Regimen = sampling.Regimen

// WarmupSpec selects a warm-up method for sampled simulation.
type WarmupSpec = warmup.Spec

// Warm-up constructors for the paper's method families.
func NoWarmup() WarmupSpec { return WarmupSpec{Kind: warmup.KindNone} }

// SMARTSWarmup returns full-functional warming of both the cache hierarchy
// and the branch predictor (the paper's S$BP).
func SMARTSWarmup() WarmupSpec {
	return WarmupSpec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}
}

// FixedPeriodWarmup functionally warms the trailing percent of each skip
// region (FP in the paper).
func FixedPeriodWarmup(percent int) WarmupSpec {
	return WarmupSpec{Kind: warmup.KindFixed, Percent: percent, Cache: true, BPred: true}
}

// ReverseWarmup returns Reverse State Reconstruction of caches and branch
// predictor at the given warm-up percentage (the paper's R$BP).
func ReverseWarmup(percent int) WarmupSpec {
	return WarmupSpec{Kind: warmup.KindReverse, Percent: percent, Cache: true, BPred: true}
}

// WarmupMatrix returns the paper's full Table 2 method matrix.
func WarmupMatrix() []WarmupSpec { return warmup.Matrix() }

// SampledResult is the outcome of a cluster-sampled run: per-cluster
// measurements, the IPC estimate (aggregated in CPI space), the 95%
// confidence interval, and cost counters.
type SampledResult = sampling.RunResult

// FullResult is a complete detailed simulation: the true-IPC baseline.
type FullResult = sampling.FullResult

// RunSampled executes a cluster-sampled simulation of the first `total`
// instructions of p with the given warm-up method. The same seed yields the
// same cluster placement for every method, keeping sampling bias constant
// across method comparisons.
func RunSampled(p *Program, m Machine, reg Regimen, total uint64, seed int64, spec WarmupSpec) (*SampledResult, error) {
	return sampling.RunSampled(p, m, reg, total, seed, spec)
}

// RunFull simulates the first `total` instructions of p cycle-accurately.
func RunFull(p *Program, m Machine, total uint64) (FullResult, error) {
	return sampling.RunFull(p, m, total)
}

// SimPointConfig parameterizes the SimPoint baseline.
type SimPointConfig struct {
	// IntervalSize is the profiling/simulation granularity in instructions
	// (the paper evaluates 50K and 10M; scale to the workload length).
	IntervalSize uint64
	// MaxPoints is the cluster count k (the paper uses 30).
	MaxPoints int
	// Seed drives k-means initialization.
	Seed int64
	// Warmup optionally applies a warm-up method while fast-forwarding
	// between simulation points (the paper's "50K-SMARTS" variants). Leave
	// zero-valued for plain SimPoint.
	Warmup WarmupSpec
}

// SimPointResult is a SimPoint IPC estimate with its cost breakdown.
type SimPointResult struct {
	IPC float64
	// Points are the chosen simulation points: each one's interval index and
	// the fraction of profiled intervals its cluster covers.
	Points []simpoint.Point
	// ProfileElapsed is the offline selection cost, BBV profiling and
	// k-means (not counted as simulation time, matching the paper's
	// comparison).
	ProfileElapsed time.Duration
	// ProfileInstructions is the instruction count the BBV profile covers:
	// the trailing partial interval is dropped, so this may be less than the
	// requested total.
	ProfileInstructions uint64
	// SimElapsed is the simulation cost: fast-forward plus hot intervals.
	SimElapsed time.Duration
	// HotInstructions is the number of cycle-accurately simulated
	// instructions.
	HotInstructions uint64
}

// RunSimPoint profiles p's basic-block vectors, clusters them, and simulates
// the chosen simulation points to produce a weighted IPC estimate: the
// "simpoint" sampling strategy with intervals as its regions.
func RunSimPoint(p *Program, m Machine, total uint64, cfg SimPointConfig) (*SimPointResult, error) {
	out, selection, err := regimen.RunTimed(regimen.SimPoint{}, regimen.Params{
		Program: p,
		Machine: m,
		Regimen: Regimen{ClusterSize: cfg.IntervalSize, NumClusters: cfg.MaxPoints},
		Total:   total,
		Seed:    cfg.Seed,
		Warmup:  cfg.Warmup,
	})
	if err != nil {
		return nil, err
	}
	res := &SimPointResult{
		IPC:                 out.Estimate.IPC,
		Points:              make([]simpoint.Point, len(out.Plan.Regions)),
		ProfileElapsed:      selection,
		ProfileInstructions: out.Plan.ProfileInstructions,
		SimElapsed:          out.Elapsed - selection,
		HotInstructions:     out.HotInstructions,
	}
	for i, r := range out.Plan.Regions {
		res.Points[i] = simpoint.Point{IntervalIndex: int(r.Start / cfg.IntervalSize), Weight: r.Weight}
	}
	return res, nil
}

// CoreConfig is the out-of-order core's machine parameters (widths, window
// sizes, branch penalty): Machine.CPU. Warm-up methods touch only the caches
// and predictor, so a core design sweep varies it under a fixed warm-up (see
// examples/designspace).
type CoreConfig = ooo.Config

// Lab runs the paper's experiments (Table 1, Figures 5-9, the appendix)
// with a shared cache of true-IPC baselines.
type Lab = experiments.Lab

// LabConfig scales and seeds an experiment run.
type LabConfig = experiments.Config

// NewLab builds an experiment lab; use experiments at Scale 1.0 for the
// reference reproduction or smaller scales for quick looks.
func NewLab(cfg LabConfig) *Lab { return experiments.NewLab(cfg) }

// DefaultLabConfig returns the reference experiment configuration
// (20M-instruction workloads, seed 2007).
func DefaultLabConfig() LabConfig { return experiments.DefaultConfig() }

// Engine is the concurrent simulation engine: a bounded worker pool with
// single-flight deduplication and a content-addressed result cache (in
// memory, plus on disk when a cache directory is configured). The Lab and
// the rsrd daemon run on it; it is also usable directly for custom sweeps.
type Engine = engine.Engine

// EngineOptions configures worker count, cache directory, and the default
// per-job timeout.
type EngineOptions = engine.Options

// EngineJob describes one deterministic simulation run; equal jobs hash to
// the same content address and are computed at most once.
type EngineJob = engine.Job

// Job kinds for EngineJob.Kind.
const (
	JobSampled = engine.JobSampled
	JobFull    = engine.JobFull
)

// EngineResult is a finished job's outcome (sampled or full).
type EngineResult = engine.Result

// EngineTicket is the handle returned by Engine.Submit.
type EngineTicket = engine.Ticket

// EngineStats is a snapshot of scheduler and cache counters.
type EngineStats = engine.Stats

// NewEngine starts an engine and its worker pool; call Close to stop it.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }
