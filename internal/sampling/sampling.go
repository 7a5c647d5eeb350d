// Package sampling orchestrates cluster-sampled simulation (Figure 1 of the
// paper): hot cycle-accurate simulation of randomly placed clusters, cold
// functional simulation between them, and a pluggable warm-up method that
// observes the skipped stream and repairs microarchitectural state before
// each cluster.
//
// # Concurrency contract
//
// RunSampled, RunSampledOpts, RunSampledMethod, and RunFull build a fresh
// Hierarchy, predictor Unit, timing model, and functional simulator for
// every call and share no mutable state between calls; the input Program is
// read-only. Any number of runs may therefore execute concurrently (the
// engine package relies on this), and because every run is deterministic in
// its inputs, concurrent and sequential execution produce identical results.
// TestRunSampledFreshStatePerCall asserts this contract.
package sampling

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rsr/internal/bpred"
	"rsr/internal/funcsim"
	"rsr/internal/mem"
	"rsr/internal/obs"
	"rsr/internal/ooo"
	"rsr/internal/prog"
	"rsr/internal/stats"
	"rsr/internal/trace"
	"rsr/internal/warmup"
)

// Regimen defines a sampling design: the cluster (sampling-unit) size in
// instructions and how many clusters make up the sample.
type Regimen struct {
	ClusterSize uint64
	NumClusters int
}

// Validate checks the regimen against a total workload length.
func (r Regimen) Validate(total uint64) error {
	if r.ClusterSize == 0 || r.NumClusters <= 0 {
		return errors.New("sampling: cluster size and count must be positive")
	}
	// NumClusters*ClusterSize <= total implies floor(total/NumClusters) >=
	// ClusterSize, so every stratum fits its cluster: no separate stratum
	// check is needed (TestRegimenValidateBoundaries pins the boundaries).
	if uint64(r.NumClusters)*r.ClusterSize > total {
		return fmt.Errorf("sampling: %d clusters of %d exceed workload length %d",
			r.NumClusters, r.ClusterSize, total)
	}
	return nil
}

// Positions returns the cluster start positions (dynamic instruction
// indices), sorted ascending. Placement is stratified-uniform: the workload
// is divided into NumClusters equal strata and each cluster start is drawn
// uniformly within its stratum, which matches the paper's uniformly random
// starting positions while guaranteeing ordering and non-overlap.
func Positions(total uint64, r Regimen, seed int64) ([]uint64, error) {
	if err := r.Validate(total); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	stratum := total / uint64(r.NumClusters)
	starts := make([]uint64, r.NumClusters)
	for i := range starts {
		slack := stratum - r.ClusterSize
		off := uint64(0)
		if slack > 0 {
			off = uint64(rng.Int63n(int64(slack + 1)))
		}
		starts[i] = uint64(i)*stratum + off
	}
	return starts, nil
}

// MachineConfig bundles the simulated machine.
type MachineConfig struct {
	CPU  ooo.Config
	Hier mem.HierarchyConfig
	Pred bpred.Config
}

// DefaultMachine returns the paper's machine (§4).
func DefaultMachine() MachineConfig {
	return MachineConfig{
		CPU:  ooo.DefaultConfig(),
		Hier: mem.DefaultHierarchyConfig(),
		Pred: bpred.DefaultConfig(),
	}
}

// ClusterStat is the measurement taken from one cluster.
type ClusterStat struct {
	Start  uint64 // dynamic instruction index of the cluster start
	Result ooo.Result
}

// RunResult summarizes one sampled simulation.
type RunResult struct {
	Method   string
	Clusters []ClusterStat
	// Elapsed is the wall-clock duration of the whole sampled run.
	Elapsed time.Duration
	// Work is the warm-up method's state-operation count.
	Work warmup.Work
	// FuncInstructions counts functionally executed (skipped) instructions.
	FuncInstructions uint64
	// HotInstructions counts instructions retired by the timing model.
	HotInstructions uint64
}

// IPCs returns the per-cluster IPC sample.
func (r *RunResult) IPCs() []float64 {
	out := make([]float64, len(r.Clusters))
	for i, c := range r.Clusters {
		out[i] = c.Result.IPC()
	}
	return out
}

// CPIs returns the per-cluster cycles-per-instruction sample. With
// equal-size clusters the mean CPI is the unbiased estimator of the
// population CPI, so estimates aggregate in CPI space (as SMARTS does) and
// convert to IPC at the end; an arithmetic mean of cluster IPCs would
// overweight fast phases on workloads with high phase variance.
func (r *RunResult) CPIs() []float64 {
	out := make([]float64, len(r.Clusters))
	for i, c := range r.Clusters {
		if c.Result.Instructions > 0 {
			out[i] = float64(c.Result.Cycles) / float64(c.Result.Instructions)
		}
	}
	return out
}

// IPCEstimate returns the sampled IPC estimate, 1 / mean cluster CPI.
func (r *RunResult) IPCEstimate() float64 {
	m := stats.Mean(r.CPIs())
	if m == 0 {
		return 0
	}
	return 1 / m
}

// CI returns the 95% confidence interval of the mean cluster CPI.
func (r *RunResult) CI() stats.Interval { return stats.CI95(r.CPIs()) }

// ConfidenceContains reports whether the 95% confidence interval covers the
// true IPC (the paper's confidence test), evaluated in CPI space where the
// interval is constructed.
func (r *RunResult) ConfidenceContains(trueIPC float64) bool {
	if trueIPC == 0 {
		return false
	}
	return r.CI().Contains(1 / trueIPC)
}

// RunSampled executes the sampled simulation of program p under the given
// machine, regimen, and warm-up specification. The same seed produces the
// same cluster positions (and therefore the same sampling bias) for every
// method, as the paper's methodology requires.
func RunSampled(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, spec warmup.Spec) (*RunResult, error) {
	return RunSampledMethod(p, m, reg, total, seed, func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
		return spec.New(h, u)
	})
}

// ErrCanceled is returned when a run is stopped through Options.Cancel
// before completing.
var ErrCanceled = errors.New("sampling: run canceled")

// Options tunes the sampled-run controller beyond the warm-up method.
type Options struct {
	// DetailedWarmup runs this many skip-region instructions through the
	// timing model immediately before each cluster without measuring them:
	// "hot-start" warming that repairs pipeline-adjacent state (and caches /
	// predictor, at detailed fidelity) at full detailed cost. It is an
	// ablation point between functional warming and simply enlarging
	// clusters.
	DetailedWarmup uint64
	// Cancel, when non-nil, aborts the run with ErrCanceled once the channel
	// is closed. Runs poll it once per instruction batch (and sampled runs
	// additionally at cluster boundaries), so results of uncanceled runs are
	// unaffected.
	Cancel <-chan struct{}
	// Shards, when > 1, runs the sampled simulation through the parallel
	// cluster pipeline (RunSampledParallel): cold functional execution,
	// skip observation into private region captures, and producer-side
	// reconstruction planning fan out over shard goroutines seeded from
	// architectural checkpoints, while shared microarchitectural state
	// advances sequentially in cluster order, so results stay byte-identical
	// to the sequential run. Every warm-up method shards — functional
	// warming captures its would-be applications and replays them at
	// adoption. 0 or 1 selects the sequential path. Shards is an execution
	// policy, not part of a run's identity.
	Shards int
	// Checkpoints, when non-nil alongside a non-empty CheckpointKey, lets
	// the parallel pipeline load its pre-pass checkpoint chain from a
	// shared store (skipping the pre-pass functional run) and persist a
	// freshly captured chain for other runs — or other nodes — with the
	// same key. Chains are pure functions of their key, so reuse preserves
	// byte-identical results; both fields are execution policy, never part
	// of a run's identity.
	Checkpoints   CheckpointStore
	CheckpointKey string
	// Instr, when non-nil, streams per-phase instruction counts, durations,
	// warm-up work deltas, and machine event counters into its registry.
	// Tracer, when non-nil, records one span per cluster phase (cold-skip,
	// reverse-scan, warm-apply, hot-sim) on a track of its own. Both default
	// off; recording happens at phase boundaries — never per instruction —
	// so enabling them does not perturb results (TestInstrumentedRunIdentical
	// pins this) and the simulation hot loops stay allocation-free.
	Instr  *Instruments
	Tracer *obs.Tracer
}

// canceled reports whether the cancel channel (if any) has been closed.
func (o Options) canceled() bool {
	if o.Cancel == nil {
		return false
	}
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}

// RunSampledOpts is RunSampled with controller options.
func RunSampledOpts(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, spec warmup.Spec, opts Options) (*RunResult, error) {
	return runSampled(p, m, reg, total, seed, func(h *mem.Hierarchy, u *bpred.Unit) warmup.Method {
		return spec.New(h, u)
	}, opts)
}

// RunSampledParallel is RunSampledOpts with intra-run cluster parallelism:
// opts.Shards goroutines (defaulting to GOMAXPROCS when unset) divide the
// clusters into contiguous shards, a fast functional pre-pass seeds each
// shard with an architectural checkpoint (registers plus dirty-page deltas)
// at its boundary, and the shards execute their cold phases, capture their
// skip observations, and materialize reconstruction plans concurrently
// while shared microarchitectural state — caches, predictor — advances
// strictly in cluster order. The result is byte-identical to the sequential
// run for every warm-up method (see DESIGN.md "Parallel cluster simulation"
// for the determinism argument).
func RunSampledParallel(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, spec warmup.Spec, opts Options) (*RunResult, error) {
	if opts.Shards == 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	return RunSampledOpts(p, m, reg, total, seed, spec, opts)
}

// RunSampledMethod is RunSampled for warm-up methods that need more context
// than a Spec carries (for example the profiling-based MRRL/BLRL methods,
// whose per-region warm windows are computed ahead of time). The factory
// receives the run's hierarchy and predictor.
func RunSampledMethod(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, mk func(*mem.Hierarchy, *bpred.Unit) warmup.Method) (*RunResult, error) {
	return runSampled(p, m, reg, total, seed, mk, Options{})
}

// stream feeds the timing model from the functional simulator in batches
// (funcsim.BatchSize records per Fill), polling cancellation once per batch.
// It implements ooo.Source; Fill is clamped by the caller's remaining budget
// so the functional simulator never executes past a region boundary.
type stream struct {
	fs   *funcsim.Sim
	buf  []trace.DynInst
	opts *Options
	err  error
}

func (st *stream) Fill(max uint64) []trace.DynInst {
	if st.err != nil {
		return nil
	}
	if st.opts.canceled() {
		st.err = ErrCanceled
		return nil
	}
	b := st.buf
	if max < uint64(len(b)) {
		b = b[:max]
	}
	n, err := st.fs.RunBatch(b)
	if err != nil {
		st.err = err
	}
	return b[:n]
}

func runSampled(p *prog.Program, m MachineConfig, reg Regimen, total uint64, seed int64, mk func(*mem.Hierarchy, *bpred.Unit) warmup.Method, opts Options) (*RunResult, error) {
	starts, err := Positions(total, reg, seed)
	if err != nil {
		return nil, err
	}
	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	method := mk(hier, unit)
	sim := ooo.New(m.CPU, hier, method.Predictor())

	if shards := shardCount(opts.Shards, len(starts)); shards > 1 {
		// Every method supports region captures (part of the Method
		// contract), so a sharded request never falls back to the
		// sequential path.
		return runParallel(p, reg, starts, hier, unit, method, sim, shards, opts)
	}

	fs := funcsim.New(p)

	res := &RunResult{Method: method.Name(), Clusters: make([]ClusterStat, 0, len(starts))}
	ro := newRunObs(opts.Instr, opts.Tracer, method.Name(), method.Name())
	begin := time.Now()
	buf := make([]trace.DynInst, funcsim.BatchSize)
	st := &stream{fs: fs, buf: buf, opts: &opts}
	observe := method.ObserveSkipBatch
	var pos uint64
	for ci, start := range starts {
		if opts.canceled() {
			return nil, ErrCanceled
		}
		skip := start - pos
		dw := opts.DetailedWarmup
		if dw > skip {
			dw = skip
		}
		cold := skip - dw

		// Cold phase: batch-execute the skip region, handing each batch to
		// the warm-up method and polling cancellation between batches.
		t0 := ro.begin()
		method.BeginSkip(cold)
		var ran uint64
		for ran < cold {
			b := buf
			if rem := cold - ran; rem < uint64(len(b)) {
				b = b[:rem]
			}
			k, err := fs.RunBatch(b)
			if err != nil {
				return nil, fmt.Errorf("sampling: cold phase: %w", err)
			}
			if k > 0 {
				observe(b[:k])
			}
			ran += uint64(k)
			if k < len(b) {
				break // halted
			}
			if opts.canceled() {
				return nil, ErrCanceled
			}
		}
		if ran != cold {
			return nil, fmt.Errorf("sampling: workload halted after %d skipped instructions", ran)
		}
		res.FuncInstructions += ran
		ro.coldDone(t0, ci, ran, method.Work())

		t0 = ro.begin()
		method.EndSkip()
		ro.reconDone(t0, ci, method.Work())
		pos += ran

		if dw > 0 {
			// Unmeasured detailed warm-up immediately before the cluster.
			t0 = ro.begin()
			w := sim.SimulateSource(dw, st)
			if st.err != nil {
				return nil, fmt.Errorf("sampling: detailed warm-up: %w", st.err)
			}
			res.FuncInstructions += w.Instructions
			pos += w.Instructions
			ro.warmDone(t0, ci, w.Instructions)
		}

		t0 = ro.begin()
		r := sim.SimulateSource(reg.ClusterSize, st)
		if st.err != nil {
			return nil, fmt.Errorf("sampling: hot phase: %w", st.err)
		}
		res.FuncInstructions += r.Instructions
		res.HotInstructions += r.Instructions
		res.Clusters = append(res.Clusters, ClusterStat{Start: start, Result: r})
		pos += r.Instructions
		ro.hotDone(t0, ci, r.Instructions, method.Work())
	}
	res.Elapsed = time.Since(begin)
	res.Work = method.Work()
	ro.runDone("sampled", hier, unit)
	return res, nil
}

// FullResult is a complete detailed simulation — the paper's "true IPC"
// baseline.
type FullResult struct {
	Result  ooo.Result
	Elapsed time.Duration
}

// RunFull simulates the first `total` instructions of p cycle-accurately.
func RunFull(p *prog.Program, m MachineConfig, total uint64) (FullResult, error) {
	return RunFullOpts(p, m, total, Options{})
}

// RunFullOpts is RunFull with controller options (only Options.Cancel
// applies). The cancel poll runs once per instruction batch, so an uncanceled
// run is identical to RunFull.
func RunFullOpts(p *prog.Program, m MachineConfig, total uint64, opts Options) (FullResult, error) {
	hier := mem.NewHierarchy(m.Hier)
	unit := bpred.NewUnit(m.Pred)
	sim := ooo.New(m.CPU, hier, unit)
	fs := funcsim.New(p)
	ro := newRunObs(opts.Instr, opts.Tracer, "full", "")
	begin := time.Now()
	st := &stream{fs: fs, buf: make([]trace.DynInst, funcsim.BatchSize), opts: &opts}
	t0 := ro.begin()
	r := sim.SimulateSource(total, st)
	if st.err != nil {
		return FullResult{}, fmt.Errorf("sampling: full run: %w", st.err)
	}
	ro.fullDone(t0, r.Instructions)
	ro.runDone("full", hier, unit)
	return FullResult{Result: r, Elapsed: time.Since(begin)}, nil
}

var _ bpred.Predictor = (*bpred.Unit)(nil)
