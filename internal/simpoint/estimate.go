package simpoint

import (
	"fmt"
	"math"
	"time"

	"rsr/internal/prog"
	"rsr/internal/sampling"
	"rsr/internal/warmup"
)

// Config parameterizes a SimPoint estimation run.
type Config struct {
	// IntervalSize is the profiling/simulation granularity in instructions
	// (the paper evaluates 50K and 10M; scale to the workload length).
	IntervalSize uint64
	// MaxPoints is the cluster count k (the paper uses 30).
	MaxPoints int
	// Seed drives k-means initialization.
	Seed int64
	// Warmup optionally applies a warm-up method while fast-forwarding
	// between simulation points (the paper's "50K-SMARTS" variants). Leave
	// zero-valued (KindNone) for plain SimPoint.
	Warmup warmup.Spec
}

// Result is a SimPoint IPC estimate with its cost breakdown.
type Result struct {
	IPC    float64
	Points []Point
	// ProfileElapsed is the offline BBV profiling cost (not counted as
	// simulation time, matching the paper's comparison).
	ProfileElapsed time.Duration
	// ProfileInstructions is the instruction count the BBV profile actually
	// covers: Profile drops the trailing partial interval, so this may be
	// less than the requested total.
	ProfileInstructions uint64
	// SimElapsed is the simulation cost: fast-forward plus hot intervals.
	SimElapsed time.Duration
	// HotInstructions is the number of cycle-accurately simulated
	// instructions.
	HotInstructions uint64
}

// Estimate profiles p, picks simulation points, and simulates them to
// produce a weighted IPC estimate. stop is Profile's: nil never stops.
func Estimate(p *prog.Program, m sampling.MachineConfig, total uint64, cfg Config, stop func() bool) (*Result, error) {
	profileStart := time.Now()
	intervals, covered, err := Profile(p, total, cfg.IntervalSize, stop)
	if err != nil {
		return nil, err
	}
	points := Pick(intervals, cfg.MaxPoints, cfg.Seed)
	res, err := SimulatePoints(p, m, cfg, points)
	if err != nil {
		return nil, err
	}
	res.ProfileElapsed = time.Since(profileStart)
	res.ProfileInstructions = covered
	return res, nil
}

// SimulatePoints fast-forwards between the given simulation points and
// simulates each one cycle-accurately — the shared region walker over one
// IntervalSize region per point — returning the weighted IPC estimate.
// Points must be sorted ascending by interval index and distinct — an
// interval whose start lies before the simulator's position (overlapping or
// out-of-order points) is rejected with an error rather than wrapping the
// uint64 skip distance into a multi-exabyte fast-forward.
func SimulatePoints(p *prog.Program, m sampling.MachineConfig, cfg Config, points []Point) (*Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("simpoint: no simulation points selected")
	}
	regions := make([]sampling.Region, len(points))
	for i, pt := range points {
		regions[i] = sampling.Region{Start: uint64(pt.IntervalIndex) * cfg.IntervalSize, Size: cfg.IntervalSize}
	}
	run, err := sampling.RunRegions(p, m, regions, cfg.Warmup.New, sampling.Options{})
	if err != nil {
		return nil, fmt.Errorf("simpoint: %w", err)
	}

	var weighted, wsum float64
	for i, c := range run.Clusters {
		// A hot interval that retires nothing (the workload halted at its
		// start) carries no IPC information: folding its weight in would
		// drag the weighted mean toward zero, and a NaN ratio would poison
		// it outright. Drop the point from the estimate instead.
		if ipc := c.Result.IPC(); c.Result.Instructions > 0 && !math.IsNaN(ipc) {
			weighted += points[i].Weight * ipc
			wsum += points[i].Weight
		}
	}
	res := &Result{Points: points, SimElapsed: run.Elapsed, HotInstructions: run.HotInstructions}
	if wsum > 0 {
		res.IPC = weighted / wsum
	}
	return res, nil
}
