package engine

import (
	"fmt"
	"runtime/debug"
	"time"

	"rsr/internal/fault"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/workload"
)

// safeRun executes runJob with worker-panic isolation and fault injection.
// A panic — from the simulation itself or injected by a chaos plan — is
// converted to a typed *PanicError carrying the recovery-time stack, so one
// bad job can never take down the process or its sibling workers. eo (usually
// nil) streams the run's metrics and, scoped to sweep, its spans. Before
// runJob, traces records the job's placement if it is the first job of it
// (traceStore.record), and builds its reverse plan if it is the first reverse
// job of the placement and geometry (traceStore.plan); safeRun reports how
// long those took, which is not the job's run.
func safeRun(j Job, inj fault.Injector, cancel <-chan struct{}, eo *engineObs, sweep string, tid int64, traces *traceStore) (res *Result, before time.Duration, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()
	if d := fault.Check(inj, fault.JobRun, j.Hash()); d != nil {
		switch d.Kind {
		case fault.KindLatency:
			timer := time.NewTimer(d.Latency)
			select {
			case <-timer.C:
			case <-cancel:
				timer.Stop()
				return nil, 0, fmt.Errorf("engine: %s: %w", j.Label(), sampling.ErrCanceled)
			}
		case fault.KindPanic:
			panic(fmt.Sprintf("fault: injected panic in %s", j.Label()))
		case fault.KindError:
			return nil, 0, fmt.Errorf("engine: %s: %w", j.Label(), d.Err)
		}
	}
	r0 := time.Now()
	if traces.record(j, cancel) {
		before = time.Since(r0)
		eo.span(sweep, "trace-record", tid, r0)
	}
	p0 := time.Now()
	if took, tried := traces.plan(j, cancel); tried {
		before += took
		eo.span(sweep, "plan-build", tid, p0)
	}
	res, err = runJob(j, cancel, eo, sweep, traces)
	return res, before, err
}

// runJob executes one validated job. cancel aborts the simulation
// cooperatively (polled at cluster boundaries, per instruction batch and
// every 2^16 timing-model loop iterations); an uncanceled run is bit-identical to the
// direct sampling-package call — observability happens at phase boundaries
// only, so attaching eo cannot perturb results. A job that names a strategy
// runs it through the regimen runner with the same walker options, less the
// trace store: a trace is keyed by the unnamed job's placement.
func runJob(j Job, cancel <-chan struct{}, eo *engineObs, sweep string, traces sampling.TraceStore) (*Result, error) {
	w, err := workload.ByName(j.Workload)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	p := w.Build()
	instr, strat, tr := eo.sinks(sweep)
	opts := sampling.Options{Cancel: cancel, Instr: instr, Tracer: tr}
	if j.Kind == JobSampled && j.strategy() != "" {
		s, err := regimen.ByName(j.strategy())
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		out, selection, err := regimen.RunTimed(s, regimen.Params{Program: p, Machine: j.Machine,
			Regimen: j.Regimen, Total: j.Total, Seed: j.Seed, Warmup: j.Warmup,
			Options: opts, Instr: strat})
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", j.Label(), err)
		}
		return &Result{Kind: JobSampled, Outcome: out, Selection: selection}, nil
	}
	if traces != nil && j.Kind == JobSampled {
		opts.Traces = traces
		opts.TraceKey = j.TraceKey()
	}
	switch j.Kind {
	case JobFull:
		fr, err := sampling.RunFullOpts(p, j.Machine, j.Total, opts)
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", j.Label(), err)
		}
		return &Result{Kind: JobFull, Full: &fr}, nil
	case JobSampled:
		rr, err := sampling.RunSampledOpts(p, j.Machine, j.Regimen, j.Total, j.Seed, j.Warmup, opts)
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", j.Label(), err)
		}
		return &Result{Kind: JobSampled, Sampled: rr}, nil
	}
	return nil, fmt.Errorf("engine: unknown job kind %q", j.Kind)
}
