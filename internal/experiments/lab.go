// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the true-IPC/regimen table, the warm-up method matrix,
// the cache-only, predictor-only, and combined warm-up comparisons, the
// per-benchmark Reverse-vs-SMARTS detail, the SimPoint comparison, the
// appendix (confidence tests, relative error, and time per workload and
// method), and the warm-up frontier scored by paired added error. Absolute
// wall-clock values are machine-dependent; relative orderings and the
// deterministic work counters carry the paper's story.
package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"rsr/internal/engine"
	"rsr/internal/obs"
	"rsr/internal/sampling"
	"rsr/internal/stats"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// Config scales and seeds a reproduction run.
type Config struct {
	// Scale multiplies the default 20M-instruction workload length. 1.0
	// reproduces the repository's reference results; smaller values trade
	// fidelity for speed (percent-limited warm-up needs long skip regions).
	Scale float64
	// Seed fixes cluster placement; the same seed is used for every method
	// so sampling bias is constant across methods, as in the paper.
	Seed int64
	// Workloads optionally restricts the benchmark list.
	Workloads []string
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// CacheDir enables the engine's on-disk result cache, letting repeated
	// sweeps skip already-computed runs ("" = memory-only caching).
	CacheDir string
	// Metrics, when non-nil, exposes the lab's engine and every run through
	// the registry (rsr's -metrics-out). Tracer, when non-nil, records
	// engine and per-cluster phase spans (rsr's -trace-out). Both default
	// off and do not perturb results.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Runner, when non-nil, executes the lab's jobs somewhere other than a
	// local engine — e.g. a cluster coordinator (rsr's -cluster). Every job
	// is deterministic and content-addressed, so where it runs cannot change
	// the results; Parallelism, CacheDir, Metrics, and Tracer apply
	// to the local engine only and are ignored when a Runner is supplied.
	Runner Runner
}

// Waiter is the pending-result half of a Runner submission, satisfied by
// *engine.Ticket and cluster.RemoteTicket alike.
type Waiter interface {
	Wait(ctx context.Context) (*engine.Result, error)
}

// Runner abstracts where the lab's jobs execute: submissions return a
// Waiter, identical jobs may coalesce, and results assembled in submission
// order match a sequential run. Close releases the runner's resources.
type Runner interface {
	Submit(ctx context.Context, job engine.Job) (Waiter, error)
	Close()
}

// localRunner adapts the in-process engine to the Runner seam.
type localRunner struct{ eng *engine.Engine }

func (r localRunner) Submit(ctx context.Context, job engine.Job) (Waiter, error) {
	tk, err := r.eng.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	return tk, nil
}

func (r localRunner) Close() { r.eng.Close() }

// DefaultConfig returns the reference configuration.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 2007} }

func (c Config) workloadNames() []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return workload.Names()
}

// baseTotal is the reference dynamic length per workload (the stand-in for
// the paper's first six billion instructions).
const baseTotal = 20_000_000

// Total returns the scaled dynamic instruction count.
func (c Config) Total() uint64 {
	if c.Scale <= 0 {
		return baseTotal
	}
	return uint64(float64(baseTotal) * c.Scale)
}

// regimens is the per-workload sampling design (the paper's Table 1 also
// fixes a regimen per workload). Cluster sizes are matched to each
// workload's phase period so cluster means are low-variance; cluster counts
// keep the confidence intervals tight while the sample stays a small
// fraction of the run.
var regimens = map[string]sampling.Regimen{
	"ammp":   {ClusterSize: 2000, NumClusters: 50},
	"art":    {ClusterSize: 4000, NumClusters: 50},
	"gcc":    {ClusterSize: 2000, NumClusters: 50},
	"mcf":    {ClusterSize: 8000, NumClusters: 30},
	"parser": {ClusterSize: 2000, NumClusters: 50},
	"perl":   {ClusterSize: 2000, NumClusters: 50},
	"twolf":  {ClusterSize: 2000, NumClusters: 50},
	"vortex": {ClusterSize: 2000, NumClusters: 50},
	"vpr":    {ClusterSize: 12000, NumClusters: 50},
}

// DefaultRegimen is the design used when a workload has no tuned entry in
// the regimen table.
func DefaultRegimen() sampling.Regimen {
	return sampling.Regimen{ClusterSize: 2000, NumClusters: 50}
}

// RegimenFor returns the sampling regimen used for a workload, falling back
// to DefaultRegimen for names outside the table. The fallback is for
// internal callers iterating the known workload list; anything handling
// user-supplied names must use RegimenForStrict so a typo cannot silently
// run the wrong design.
func RegimenFor(name string) sampling.Regimen {
	if r, ok := regimens[name]; ok {
		return r
	}
	return DefaultRegimen()
}

// RegimenForStrict is RegimenFor without the silent fallback: unknown
// workload names error so callers passing user input (CLI flags, API
// requests) surface the mistake instead of simulating under a default
// design the user never asked for.
func RegimenForStrict(name string) (sampling.Regimen, error) {
	if r, ok := regimens[name]; ok {
		return r, nil
	}
	if _, err := workload.ByName(name); err != nil {
		return sampling.Regimen{}, fmt.Errorf("experiments: no regimen for unknown workload %q: %w", name, err)
	}
	return sampling.Regimen{}, fmt.Errorf("experiments: workload %q has no tuned regimen (use an explicit regimen or DefaultRegimen)", name)
}

// Lab runs simulations with a shared cache of true-IPC baselines. All runs
// are submitted through an engine.Engine, so identical (workload, method)
// pairs appearing in several figures execute once, duplicate submissions
// are single-flighted, and a Config.CacheDir persists results across
// processes.
type Lab struct {
	cfg     Config
	machine sampling.MachineConfig
	eng     *engine.Engine // nil when cfg.Runner executes jobs elsewhere
	run     Runner
}

// NewLab builds a Lab over the paper's machine. With Config.Runner set, no
// local engine is started: every job goes through the runner instead.
func NewLab(cfg Config) *Lab {
	l := &Lab{cfg: cfg, machine: sampling.DefaultMachine()}
	if cfg.Runner != nil {
		l.run = cfg.Runner
		return l
	}
	l.eng = engine.New(engine.Options{
		Workers:  cfg.Parallelism,
		CacheDir: cfg.CacheDir,
		Metrics:  cfg.Metrics,
		Tracer:   cfg.Tracer,
	})
	l.run = localRunner{l.eng}
	return l
}

// Engine returns the lab's local scheduler, e.g. for stats reporting or
// event subscriptions; nil when a Config.Runner executes jobs elsewhere.
func (l *Lab) Engine() *engine.Engine { return l.eng }

// Close releases the lab's runner (the local worker pool, or the cluster
// client). A Lab remains usable without ever being closed.
func (l *Lab) Close() { l.run.Close() }

// fullJob is the engine job computing a workload's true-IPC baseline.
func (l *Lab) fullJob(name string) engine.Job {
	return engine.Job{Kind: engine.JobFull, Workload: name, Machine: l.machine, Total: l.cfg.Total()}
}

// sampledJob is the engine job for one (workload, warm-up method) run.
func (l *Lab) sampledJob(name string, spec warmup.Spec) engine.Job {
	return engine.Job{
		Kind:     engine.JobSampled,
		Workload: name,
		Machine:  l.machine,
		Total:    l.cfg.Total(),
		Regimen:  RegimenFor(name),
		Seed:     l.cfg.Seed,
		Warmup:   spec,
	}
}

// strategyJob is the engine job for one (workload, sampling strategy) run:
// the named strategy spending reg's budget, spec warming between its regions.
func (l *Lab) strategyJob(name, strategy string, reg sampling.Regimen, spec warmup.Spec) engine.Job {
	job := l.sampledJob(name, spec)
	job.Strategy, job.Regimen = strategy, reg
	return job
}

// Full returns (computing and caching on first use) the full detailed
// simulation of a workload: the true IPC baseline.
func (l *Lab) Full(name string) (sampling.FullResult, error) {
	res, err := l.runAll([]engine.Job{l.fullJob(name)})
	if err != nil {
		return sampling.FullResult{}, err
	}
	return *res[0].Full, nil
}

// Cell is one scored measurement of the evaluation: a (workload, label) run
// of a figure, the appendix, the strategy head-to-head or Figure 9.
type Cell struct {
	Workload string
	// Method labels the run: its warm-up spec, or Figure 9's SimPoint
	// configuration. Strategy is the strategy name the run's job carries
	// ("" when it names none).
	Method   string
	Strategy string `json:",omitempty"`
	TrueIPC  float64
	Estimate float64
	RelErr   float64
	// CIRel is the 95% interval's half-width relative to its mean, and
	// Confident whether that interval covers the true IPC.
	CIRel     float64
	Confident bool
	// Elapsed is the run's wall clock; Selection how much of it a strategy's
	// selection pass took (Figure 9 reports Elapsed − Selection as sim time).
	Elapsed   time.Duration
	Selection time.Duration `json:",omitempty"`
	Work      warmup.Work
	// Regions is how many detailed regions the run simulated;
	// HotInstructions and FuncInstructions describe the run composition,
	// ProfileInstructions what a strategy's selection pass ran on top.
	Regions             int
	HotInstructions     uint64
	FuncInstructions    uint64
	ProfileInstructions uint64 `json:",omitempty"`
	// AddedErrPct is the error the arm's warm-up adds over S$BP's on the same
	// clusters (addedErrPct); nil when the figure has no S$BP arm of its job.
	AddedErrPct *float64 `json:",omitempty"`
}

// score is the one reader of a sampled job's result: it scores the arm's run
// — of the paper's design (Sampled) or of a registered strategy (Outcome) —
// against a known true IPC and returns its clusters for pairing. The cell's
// Strategy is the name the arm's job carries, so the paper's design is
// "stratified-uniform" where an arm names it.
func score(a arm, trueIPC float64, res *engine.Result) (Cell, []sampling.ClusterStat) {
	c := Cell{Workload: a.job.Workload, Method: a.label, Strategy: a.job.Strategy, TrueIPC: trueIPC, Selection: res.Selection}
	var ci stats.Interval
	var clusters []sampling.ClusterStat
	if s := res.Sampled; s != nil {
		ci = s.CI()
		c.Estimate, c.Confident = s.IPCEstimate(), s.ConfidenceContains(trueIPC)
		c.Elapsed, c.Work, clusters = s.Elapsed, s.Work, s.Clusters
		c.HotInstructions, c.FuncInstructions = s.HotInstructions, s.FuncInstructions
	} else {
		out := res.Outcome
		ci = out.Estimate.CI
		c.Estimate, c.Confident = out.Estimate.IPC, out.Estimate.Confident(trueIPC)
		c.Elapsed, c.Work, clusters = out.Elapsed, out.Work, out.Clusters
		c.HotInstructions, c.FuncInstructions = out.HotInstructions, out.FuncInstructions
		c.ProfileInstructions = out.Plan.ProfileInstructions
	}
	c.RelErr, c.Regions = stats.RelErr(c.Estimate, trueIPC), len(clusters)
	if ci.Mean != 0 {
		c.CIRel = math.Abs(ci.Err / ci.Mean)
	}
	return c, clusters
}

// arm is one sampled job of a figure and the label its cell carries.
type arm struct {
	label string
	job   engine.Job
}

// runArms submits the true-IPC baseline of every workload the arms name, in
// first-appearance order and ahead of the arms (they are the longest jobs),
// then the arms, and returns one scored cell per arm in arm order.
func (l *Lab) runArms(arms []arm) ([]Cell, error) {
	var jobs []engine.Job
	full := map[string]int{} // workload → index of its baseline job
	for _, a := range arms {
		if _, ok := full[a.job.Workload]; !ok {
			full[a.job.Workload] = len(jobs)
			jobs = append(jobs, l.fullJob(a.job.Workload))
		}
	}
	first := len(jobs)
	for _, a := range arms {
		jobs = append(jobs, a.job)
	}
	results, err := l.runAll(jobs)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(arms))
	clusters := make([][]sampling.ClusterStat, len(arms))
	byJob := map[engine.Job]int{}
	for i, a := range arms {
		cells[i], clusters[i] = score(a, results[full[a.job.Workload]].Full.Result.IPC(), results[first+i])
		byJob[a.job] = i
	}
	// An arm pairs with the S$BP arm of its job: equal but for the warm-up.
	for i, a := range arms {
		pair := a.job
		pair.Warmup = sbp
		if b, ok := byJob[pair]; ok {
			pct, err := addedErrPct(clusters[i], clusters[b])
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", a.job.Label(), err)
			}
			cells[i].AddedErrPct = &pct
		}
	}
	return cells, nil
}

// addedErrPct is the paper's measure of a warm-up method, the error it adds
// over full warming on the same clusters (sampling error cancels in it): mean
// |CPI(run) − CPI(base)| over the clusters that retired something in both, in
// percent of base's mean CPI there. Clusters pair by position and must start
// at the same instruction; other placements are refused, never guessed at.
func addedErrPct(run, base []sampling.ClusterStat) (float64, error) {
	if len(run) != len(base) {
		return 0, fmt.Errorf("pairing %d clusters with %d", len(run), len(base))
	}
	var diff, sum float64
	for i, c := range run {
		if c.Start != base[i].Start {
			return 0, fmt.Errorf("cluster %d starts at %d, its pair at %d", i, c.Start, base[i].Start)
		}
		a, okA := c.CPI()
		b, okB := base[i].CPI()
		if okA && okB {
			diff += math.Abs(a - b)
			sum += b
		}
	}
	if sum == 0 {
		return 0, fmt.Errorf("no cluster retired instructions in both runs")
	}
	return 100 * diff / sum, nil
}

// Run executes one sampled simulation and scores it against the true IPC.
func (l *Lab) Run(name string, spec warmup.Spec) (Cell, error) {
	return l.RunStrategy(name, "", spec)
}

// RunStrategy is Run under a named sampling strategy spending the workload's
// regimen ("" or regimen.PaperDesign = the paper's design).
func (l *Lab) RunStrategy(name, strategy string, spec warmup.Spec) (Cell, error) {
	cells, err := l.runArms([]arm{{spec.Label(), l.strategyJob(name, strategy, RegimenFor(name), spec)}})
	if err != nil {
		return Cell{}, err
	}
	return cells[0], nil
}

// runAll submits every job up front and returns the results in submission
// order, so what is assembled from them is identical to a sequential run at
// any worker count.
func (l *Lab) runAll(jobs []engine.Job) ([]*engine.Result, error) {
	ctx := context.Background()
	tickets := make([]Waiter, len(jobs))
	for i, job := range jobs {
		t, err := l.run.Submit(ctx, job)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", job.Label(), err)
		}
		tickets[i] = t
	}
	results := make([]*engine.Result, len(jobs))
	for i, t := range tickets {
		res, err := t.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", jobs[i].Label(), err)
		}
		results[i] = res
	}
	return results, nil
}

// matrix crosses the lab's workloads with specs, one sampled arm per pair,
// ordered workload-major, spec-minor.
func (l *Lab) matrix(specs []warmup.Spec) []arm {
	var arms []arm
	for _, name := range l.cfg.workloadNames() {
		for _, spec := range specs {
			arms = append(arms, arm{spec.Label(), l.sampledJob(name, spec)})
		}
	}
	return arms
}

// MethodAverage is the mean of a group of cells: per method label in the
// figures, per strategy in the head-to-head.
type MethodAverage struct {
	// Method is the group's key: a method label, or a strategy name.
	Method         string
	MeanRelErr     float64
	MeanCIRel      float64
	ConfidentShare float64
	MeanTime       time.Duration
	MeanSelection  time.Duration
	// MeanWarmOps and MeanReconOps summarize deterministic warm-up work,
	// MeanHotInstr and MeanProfileInstr the detailed and selection work.
	MeanWarmOps      float64
	MeanReconOps     float64
	MeanHotInstr     float64
	MeanProfileInstr float64
	// MeanAddedErrPct averages the group's paired cells; nil if none is.
	MeanAddedErrPct *float64 `json:",omitempty"`
}

// averageBy groups cells by key, in first-appearance order, and averages
// each group.
func averageBy(cells []Cell, key func(Cell) string) []MethodAverage {
	var out []MethodAverage
	var n, np, added []float64 // per group: cells, paired cells, their added error
	index := map[string]int{}
	for _, c := range cells {
		k := key(c)
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, MethodAverage{Method: k})
			n, np, added = append(n, 0), append(np, 0), append(added, 0)
		}
		n[i]++
		a := &out[i]
		a.MeanRelErr += c.RelErr
		a.MeanCIRel += c.CIRel
		if c.Confident {
			a.ConfidentShare++
		}
		a.MeanTime += c.Elapsed
		a.MeanSelection += c.Selection
		a.MeanWarmOps += float64(c.Work.WarmOps)
		a.MeanReconOps += float64(c.Work.ReconScanned + c.Work.ReconApplied)
		a.MeanHotInstr += float64(c.HotInstructions)
		a.MeanProfileInstr += float64(c.ProfileInstructions)
		if c.AddedErrPct != nil {
			added[i] += *c.AddedErrPct
			np[i]++
		}
	}
	for i := range out {
		a, k := &out[i], n[i]
		a.MeanRelErr /= k
		a.MeanCIRel /= k
		a.ConfidentShare /= k
		a.MeanTime = time.Duration(float64(a.MeanTime) / k)
		a.MeanSelection = time.Duration(float64(a.MeanSelection) / k)
		a.MeanWarmOps /= k
		a.MeanReconOps /= k
		a.MeanHotInstr /= k
		a.MeanProfileInstr /= k
		if np[i] > 0 {
			mean := added[i] / np[i]
			a.MeanAddedErrPct = &mean
		}
	}
	return out
}

func byMethod(c Cell) string   { return c.Method }
func byStrategy(c Cell) string { return c.Strategy }
