package sampling

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/mem"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/warmup"
)

// Region is one stretch of the dynamic instruction stream to simulate in
// detail: Size instructions from index Start.
type Region struct {
	Start, Size uint64
}

// ValidateRegions checks what the walker needs of a region list — regions
// are non-empty, sorted by start and non-overlapping — and that the last
// one ends within total. The comparisons subtract rather than add, so a
// region whose end would wrap uint64 is rejected like any other that runs
// past the workload.
func ValidateRegions(regions []Region, total uint64) error {
	var pos uint64
	for i, r := range regions {
		if r.Size == 0 {
			return fmt.Errorf("sampling: region %d has zero size", i)
		}
		if r.Start < pos {
			return fmt.Errorf("sampling: region %d starts at %d, behind the simulated position %d (overlapping or out-of-order regions)", i, r.Start, pos)
		}
		if r.Start > total || r.Size > total-r.Start {
			return fmt.Errorf("sampling: region %d (%d instructions from %d) runs past the workload length %d", i, r.Size, r.Start, total)
		}
		pos = r.Start + r.Size
	}
	return nil
}

// RunRegions is the sampled-simulation loop of the paper's Figure 1, and the
// only one: for each region in order, skip to it functionally while the
// warm-up method observes, let the method repair microarchitectural state,
// then measure the region in the timing model. Every sampled run — stratified
// clusters, a strategy's measurement pass, SimPoint's intervals — is a region
// list handed to this walker, so Options.Cancel, the trace store and the
// instruments mean the same thing for all of them. mk builds the warm-up method over the
// run's fresh hierarchy and predictor: every production caller passes a
// warmup.Spec's New, and mk stays a factory only so tests can wrap a method
// (countingMethod, cancelingMethod) in a fake. The walker checks the region list
// itself, all but its fit in the workload, whose length it is not told: a
// workload that ends before the last region does is an error when the run
// gets there.
func RunRegions(p *prog.Program, m MachineConfig, regions []Region, mk func(*mem.Hierarchy, *bpred.Unit) warmup.Method, opts Options) (*RunResult, error) {
	if err := m.CPU.Validate(); err != nil {
		return nil, fmt.Errorf("sampling: %w", err)
	}
	if err := ValidateRegions(regions, math.MaxUint64); err != nil {
		return nil, err
	}
	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	method := mk(hier, unit)
	sim := ooo.New(m.CPU, hier, method.Predictor())
	// A method that buffers a region hears the longest cold phase before the
	// first one.
	if rs, ok := method.(warmup.RegionSizer); ok {
		var pos, longest uint64
		for _, reg := range regions {
			longest, pos = max(longest, reg.Start-pos), reg.Start+reg.Size
		}
		rs.SizeRegions(longest)
	}

	res := &RunResult{Method: method.Name(), Clusters: make([]ClusterStat, 0, len(regions))}
	begin := time.Now()

	ro := newRunObs(opts.Instr, opts.Tracer, method.Name(), method.Name())
	replay := loadTrace(m, regions, method, &opts)
	f := newAheadFeed(p, regions, method, replay, loadPlan(m, replay, method, &opts), &opts)
	defer f.stop()

	for ci, reg := range regions {
		if opts.Canceled() {
			return nil, ErrCanceled
		}
		t0 := ro.begin()
		cold := f.next(reg)
		method.BeginSkip(cold)
		if err := f.ingest(method); err != nil {
			return nil, err
		}
		ro.coldDone(t0, ci, cold, method.Work())
		res.FuncInstructions += cold

		t0 = ro.begin()
		method.EndSkip()
		ro.reconDone(t0, ci, method.Work())

		t0 = ro.begin()
		r := sim.SimulateSource(reg.Size, f)
		if err := cmp.Or(f.err(), sim.Err()); err != nil {
			return nil, fmt.Errorf("sampling: hot phase: %w", err)
		}
		res.FuncInstructions += r.Instructions
		res.HotInstructions += r.Instructions
		res.Clusters = append(res.Clusters, ClusterStat{Start: reg.Start, Result: r})
		ro.hotDone(t0, ci, r.Instructions, method.Work())
		f.release()
	}
	res.Elapsed = time.Since(begin)
	res.Work = method.Work()
	ro.runDone("sampled", hier, unit)
	return res, nil
}
