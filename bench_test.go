package rsr

// One benchmark per paper table/figure. Each drives the same experiment code
// as `cmd/rsr` at a reduced scale so the full suite stays benchable; run
// `go run ./cmd/rsr all` (scale 1.0) for the reference reproduction recorded
// in EXPERIMENTS.md. Custom metrics report the accuracy side: avgRE% is the
// mean relative IPC error of the methods under test.

import (
	"fmt"
	"runtime"
	"testing"

	"rsr/internal/bpred"
	"rsr/internal/core"
	"rsr/internal/experiments"
	"rsr/internal/funcsim"
	"rsr/internal/mem"
	"rsr/internal/ooo"
	"rsr/internal/sampling"
	"rsr/internal/trace"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// reconstructor runs reverse cache-reconstruction passes the way the reverse
// method does: plan from the log with reused scratch, then apply the plan.
type reconstructor struct {
	planner *core.CachePlanner
	plan    core.CacheReconPlan
}

func newReconstructor(h *mem.Hierarchy) *reconstructor {
	return &reconstructor{planner: core.NewCachePlanner(h.Config())}
}

func (r *reconstructor) reconstruct(h *mem.Hierarchy, log []trace.MemRecord) core.CacheReconStats {
	core.PlanCacheRecon(r.planner, log, &r.plan)
	return core.ApplyCacheRecon(h, &r.plan)
}

// benchCfg returns a reduced-scale experiment configuration: small enough to
// iterate, large enough that skip regions carry meaningful warm-up state.
func benchCfg(workloads ...string) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.25 // 5M instructions
	cfg.Workloads = workloads
	return cfg
}

func reportAvgRE(b *testing.B, avgs []experiments.MethodAverage) {
	b.Helper()
	var re float64
	for _, a := range avgs {
		re += a.MeanRelErr
	}
	b.ReportMetric(100*re/float64(len(avgs)), "avgRE%")
}

// BenchmarkTable1TrueIPC regenerates Table 1: full detailed simulation of
// each workload.
func BenchmarkTable1TrueIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg("twolf", "parser", "gcc"))
		rows, err := lab.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkFigure5CacheWarmup regenerates the cache-only warm-up comparison
// (R$ percentages vs S$).
func BenchmarkFigure5CacheWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg("gcc", "twolf"))
		f, err := lab.Figure("fig5")
		if err != nil {
			b.Fatal(err)
		}
		reportAvgRE(b, f.Averages)
	}
}

// BenchmarkFigure6BpredWarmup regenerates the predictor-only warm-up
// comparison (RBP vs SBP).
func BenchmarkFigure6BpredWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg("parser", "twolf"))
		f, err := lab.Figure("fig6")
		if err != nil {
			b.Fatal(err)
		}
		reportAvgRE(b, f.Averages)
	}
}

// BenchmarkFigure7Combined regenerates the combined cache+predictor
// comparison (R$BP, FP, None, S$BP).
func BenchmarkFigure7Combined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg("twolf"))
		f, err := lab.Figure("fig7")
		if err != nil {
			b.Fatal(err)
		}
		reportAvgRE(b, f.Averages)
	}
}

// BenchmarkFigure8PerBenchmark regenerates the per-benchmark Reverse vs
// SMARTS detail.
func BenchmarkFigure8PerBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg("gcc", "parser"))
		f, err := lab.Figure("fig8")
		if err != nil {
			b.Fatal(err)
		}
		reportAvgRE(b, f.Averages)
	}
}

// BenchmarkFigure9SimPoint regenerates the SimPoint comparison.
func BenchmarkFigure9SimPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg("twolf"))
		f, err := lab.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkAppendixMatrix runs the full 16-method Table 2 matrix on one
// workload (the appendix tables are this matrix over all workloads).
func BenchmarkAppendixMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchCfg("twolf"))
		cells, err := lab.Appendix()
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 16 {
			b.Fatal("short matrix")
		}
	}
}

// BenchmarkTable2SweepParallelism runs a small Table-2 sweep (the full
// 16-method matrix on two workloads) sequentially and across the engine's
// full worker pool — the wall-clock form of the engine's speedup. Each
// iteration builds a fresh Lab so nothing is served from cache.
func BenchmarkTable2SweepParallelism(b *testing.B) {
	pool := 4 * runtime.GOMAXPROCS(0) // oversubscribe so the arm differs even on one core
	for _, par := range []int{1, pool} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg("twolf", "parser")
				cfg.Parallelism = par
				lab := experiments.NewLab(cfg)
				cells, err := lab.Appendix()
				lab.Close()
				if err != nil {
					b.Fatal(err)
				}
				if len(cells) != 32 {
					b.Fatal("short matrix")
				}
			}
		})
	}
}

// --- Microbenchmarks of the substrates ---

// heldSource feeds the timing model a recorded stream in the run-ahead feed's
// batch size.
type heldSource struct{ insts []trace.DynInst }

func (h *heldSource) Fill(max uint64) []trace.DynInst {
	k := min(funcsim.BatchSize, max, uint64(len(h.insts)))
	out := h.insts[:k]
	h.insts = h.insts[k:]
	return out
}

// BenchmarkDetailedSimulation measures the cycle-level timing model alone, in
// nanoseconds per instruction: SimulateSource over 500k instructions recorded
// once with RunBatches and held in memory, on a fresh hierarchy and predictor
// per iteration (built, and the last one collected, off the clock). On twolf
// the window is idle in about a fifth of its cycles, on vortex in about three
// quarters (stalled on memory): the second is where skipping idle cycles shows.
func BenchmarkDetailedSimulation(b *testing.B) {
	const n = 500_000
	m := sampling.DefaultMachine()
	for _, name := range []string{"twolf", "vortex"} {
		b.Run(name, func(b *testing.B) {
			w, _ := workload.ByName(name)
			insts := make([]trace.DynInst, 0, n)
			buf := make([]trace.DynInst, funcsim.BatchSize)
			keep := func(batch []trace.DynInst) { insts = append(insts, batch...) }
			if ran, err := funcsim.New(w.Build()).RunBatches(n, buf, keep, nil); err != nil || ran != n {
				b.Fatalf("recorded %d of %d: %v", ran, n, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sim := ooo.New(m.CPU, mem.NewHierarchy(m.Hier), bpred.NewUnit(m.Pred))
				runtime.GC() // the last iteration's hierarchy is not this one's to collect
				b.StartTimer()
				if r := sim.SimulateSource(n, &heldSource{insts}); r.Instructions != n || sim.Err() != nil {
					b.Fatalf("retired %d of %d: %v", r.Instructions, n, sim.Err())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/instr")
		})
	}
}

// BenchmarkFunctionalSimulation measures the architectural interpreter's three
// kernels over 1M instructions of twolf: skip, the record-free cold path
// behind every instruction before a warm-up window; window, which logs a
// warm-up window's memory and branch records (S$BP's, in 4096-record
// stretches); and runbatch, which stores each instruction's record for the
// timing model.
func BenchmarkFunctionalSimulation(b *testing.B) {
	w, _ := workload.ByName("twolf")
	p := w.Build()
	const n = 1_000_000
	run := func(b *testing.B, exec func(fs *funcsim.Sim) (uint64, error)) {
		for i := 0; i < b.N; i++ {
			if ran, err := exec(funcsim.New(p)); err != nil || ran != n {
				b.Fatalf("ran %d of %d: %v", ran, n, err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/instr")
	}
	b.Run("skip", func(b *testing.B) {
		run(b, func(fs *funcsim.Sim) (uint64, error) { return fs.Skip(n) })
	})
	b.Run("runbatch", func(b *testing.B) {
		buf := make([]trace.DynInst, funcsim.BatchSize)
		run(b, func(fs *funcsim.Sim) (uint64, error) { return fs.RunBatches(n, buf, nil, nil) })
	})
	b.Run("window", func(b *testing.B) {
		w := trace.Window{Cache: true, BPred: true, LineMask: ^uint64(mem.DefaultHierarchyConfig().L1I.LineBytes - 1)}
		w.Mem, w.Branches = make([]trace.MemRecord, 0, 4096), make([]trace.BranchRecord, 0, 2048)
		run(b, func(fs *funcsim.Sim) (uint64, error) {
			var ran uint64
			for ran < n && !fs.Halted() {
				k, err := fs.SkipWindow(min(n-ran, funcsim.BatchSize), &w)
				if ran += k; err != nil {
					return ran, err
				}
				if w.Full() { // a stretch handed off: its storage comes back empty
					w.Reset()
				}
			}
			return ran, nil
		})
	})
}

// BenchmarkReverseCacheReconstruction measures the §3.1 reverse pass against
// functionally applying the same log (the SMARTS-style cost), isolating the
// speedup mechanism the paper describes.
func BenchmarkReverseCacheReconstruction(b *testing.B) {
	log := make([]trace.MemRecord, 200_000)
	lcg := uint64(12345)
	for i := range log {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		log[i] = trace.MemRecord{Addr: (lcg >> 20) % (8 << 20), IsStore: i%3 == 0}
	}
	b.Run("reverse20", func(b *testing.B) {
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		r := newReconstructor(h)
		for i := 0; i < b.N; i++ {
			_ = r.reconstruct(h, log[len(log)-len(log)/5:]) // a 20% window: the log the method would have kept
		}
	})
	b.Run("reverse100", func(b *testing.B) {
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		r := newReconstructor(h)
		for i := 0; i < b.N; i++ {
			_ = r.reconstruct(h, log)
		}
	})
	b.Run("functionalFull", func(b *testing.B) {
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		for i := 0; i < b.N; i++ {
			for j := range log {
				h.WarmData(log[j].Addr, log[j].IsStore)
			}
		}
	})
}

// BenchmarkWarmupMethodsEndToEnd compares total sampled-run cost per warm-up
// method on one workload — the wall-clock form of the paper's speedup claim.
func BenchmarkWarmupMethodsEndToEnd(b *testing.B) {
	for _, spec := range []warmup.Spec{
		{Kind: warmup.KindNone},
		{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true},
	} {
		spec := spec
		b.Run(spec.Label(), func(b *testing.B) {
			w, _ := workload.ByName("gcc")
			p := w.Build()
			reg := sampling.Regimen{ClusterSize: 2000, NumClusters: 20}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sampling.RunSampled(p, sampling.DefaultMachine(), reg, 2_000_000, 1, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// heldTrace is a sampling.TraceStore holding one trace and its reverse plan.
type heldTrace struct {
	trace *sampling.Trace
	plan  *sampling.TracePlan
}

func (h *heldTrace) LoadTrace(string) *sampling.Trace { return h.trace }

func (h *heldTrace) LoadPlan(string, sampling.MachineConfig) *sampling.TracePlan { return h.plan }

// BenchmarkReplayArms times the arms a sweep replays on one placement: twolf's
// fig7 placement at scale 0.25 (5M instructions, 50 clusters of 2,000),
// recorded and its reverse plan built off the clock, then replayed under None,
// FP (20/80%) and R$BP (20/80%). R$BP's arms cut the plan; an arm's cost over
// None is its warm-up's (EXPERIMENTS.md, "Reverse plans nest").
func BenchmarkReplayArms(b *testing.B) {
	w, _ := workload.ByName("twolf")
	p, m := w.Build(), sampling.DefaultMachine()
	regions, err := sampling.Regimen{ClusterSize: 2000, NumClusters: 50}.Regions(5_000_000, 2007)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sampling.RecordTrace(p, m, regions, 1<<40, nil)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sampling.PlanTrace(tr, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	store := &heldTrace{trace: tr, plan: plan}
	for _, spec := range []warmup.Spec{
		{Kind: warmup.KindNone},
		{Kind: warmup.KindFixed, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindFixed, Percent: 80, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 80, Cache: true, BPred: true},
	} {
		b.Run(spec.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sampling.RunRegions(p, m, regions, spec.New, sampling.Options{Traces: store, TraceKey: "twolf"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
