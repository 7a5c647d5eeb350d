// Command rsrbench is the machine-readable benchmark harness: it runs the
// performance-critical substrates through testing.Benchmark and writes a
// BENCH_<label>.json snapshot, so before/after comparisons across commits are
// a file diff rather than a scrollback archaeology exercise.
//
// Usage:
//
//	rsrbench [-label dev] [-out FILE] [-compare BASELINE.json]
//
// The metrics:
//
//	functional_sim     architectural interpreter throughput (instr/s)
//	detailed_sim       cycle-level timing model throughput (instr/s)
//	reverse_recon_20   reverse cache reconstruction, newest 20% (records/s)
//	reverse_recon_100  reverse cache reconstruction, full log (records/s)
//	warmup_<arm>       end-to-end sampled run per warm-up method (runs/s)
//	shard_sweep_<n>    parallel cluster pipeline at n shards (runs/s);
//	                   the <n>/1 ratio is the intra-run speedup
//	shard_sweep_funcwarm_<n>  the same sweep for functional warming (S$BP),
//	                   which shards through speculative region captures
//	figure7            one end-to-end figure regeneration (runs/s)
//
// With -compare, the deltas against a previous snapshot are printed and the
// exit status is still zero: regression gating policy belongs to CI, not to
// the measuring tool. Arms without a counterpart on the other side are
// printed with a note and skipped — a new arm never breaks comparison
// against an older snapshot.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"rsr/internal/core"
	"rsr/internal/experiments"
	"rsr/internal/funcsim"
	"rsr/internal/mem"
	"rsr/internal/regimen"
	"rsr/internal/sampling"
	"rsr/internal/trace"
	"rsr/internal/warmup"
	"rsr/internal/workload"
)

// Metric is one measured quantity.
type Metric struct {
	Name string `json:"name"`
	// Value is the headline number in Unit (higher is better for all
	// rsrbench metrics: they are throughputs).
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// NsPerOp and Iterations carry the raw testing.Benchmark result.
	NsPerOp    float64 `json:"ns_per_op"`
	Iterations int     `json:"iterations"`
}

// Snapshot is the BENCH_<label>.json document.
type Snapshot struct {
	Label      string   `json:"label"`
	Timestamp  string   `json:"timestamp"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Metrics    []Metric `json:"metrics"`
}

func main() {
	label := flag.String("label", "dev", "snapshot label (names the output file)")
	out := flag.String("out", "", "output path (default BENCH_<label>.json)")
	compare := flag.String("compare", "", "previous snapshot to diff against")
	flag.Parse()
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", *label)
	}

	snap := &Snapshot{
		Label:      *label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, m := range measure() {
		snap.Metrics = append(snap.Metrics, m)
		fmt.Printf("%-26s %14.0f %-10s (%d iter, %.2f ms/op)\n",
			m.Name, m.Value, m.Unit, m.Iterations, m.NsPerOp/1e6)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsrbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "rsrbench:", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("wrote %s\n", *out)

	if *compare != "" {
		if err := printComparison(os.Stdout, *compare, snap); err != nil {
			fmt.Fprintln(os.Stderr, "rsrbench: -compare:", err)
			os.Exit(1)
		}
	}
}

// throughput converts a benchmark of `per` units of work per iteration into
// a units-per-second Metric.
func throughput(name, unit string, per float64, r testing.BenchmarkResult) Metric {
	return Metric{
		Name:       name,
		Value:      per * float64(r.N) / r.T.Seconds(),
		Unit:       unit,
		NsPerOp:    float64(r.NsPerOp()),
		Iterations: r.N,
	}
}

func measure() []Metric {
	var out []Metric
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "rsrbench:", err)
		os.Exit(1)
	}

	tw, _ := workload.ByName("twolf")
	twolf := tw.Build()
	gc, _ := workload.ByName("gcc")
	gcc := gc.Build()

	// Architectural interpreter: the batched hot loop.
	const funcInstr = 1_000_000
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs := funcsim.New(twolf)
			if _, err := fs.Skip(funcInstr); err != nil {
				fail(err)
			}
		}
	})
	out = append(out, throughput("functional_sim", "instr/s", funcInstr, r))

	// Cycle-level timing model.
	const detInstr = 500_000
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sampling.RunFull(twolf, sampling.DefaultMachine(), detInstr); err != nil {
				fail(err)
			}
		}
	})
	out = append(out, throughput("detailed_sim", "instr/s", detInstr, r))

	// Reverse cache reconstruction over a synthetic log (same generator as
	// BenchmarkReverseCacheReconstruction).
	log := make([]trace.MemRecord, 200_000)
	lcg := uint64(12345)
	for i := range log {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		log[i] = trace.MemRecord{Addr: (lcg >> 20) % (8 << 20), IsStore: i%3 == 0}
	}
	for _, pct := range []int{20, 100} {
		pct := pct
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.ReconstructCaches(h, log, pct)
			}
		})
		out = append(out, throughput(fmt.Sprintf("reverse_recon_%d", pct), "records/s",
			float64(len(log))*float64(pct)/100, r))
	}

	// End-to-end sampled runs per warm-up arm: the wall-clock form of the
	// paper's speedup claim, and the number the batched streaming work moves.
	reg := sampling.Regimen{ClusterSize: 2000, NumClusters: 20}
	for _, spec := range []warmup.Spec{
		{Kind: warmup.KindNone},
		{Kind: warmup.KindSMARTS, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true},
		{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true},
	} {
		spec := spec
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sampling.RunSampled(gcc, sampling.DefaultMachine(), reg, 2_000_000, 1, spec); err != nil {
					fail(err)
				}
			}
		})
		out = append(out, throughput("warmup_"+spec.Label(), "runs/s", 1, r))
	}

	// Shard sweep: the same Figure-7 warm-up configuration driven through
	// the parallel cluster pipeline at increasing shard counts. Results are
	// byte-identical across the sweep (the parallel path's contract), so the
	// only thing that moves is wall clock; shard_sweep_N / shard_sweep_1 is
	// the intra-run speedup quoted in EXPERIMENTS.md.
	sweepSpec := warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		opts := sampling.Options{Shards: shards}
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sampling.RunSampledOpts(gcc, sampling.DefaultMachine(), reg, 2_000_000, 1, sweepSpec, opts); err != nil {
					fail(err)
				}
			}
		})
		out = append(out, throughput(fmt.Sprintf("shard_sweep_%d", shards), "runs/s", 1, r))
	}

	// The same sweep for the functional-warming family: producers capture
	// the would-be warming applications into private region logs and the
	// consumer replays them in cluster order. On one core the sweep measures
	// the capture/replay overhead (the honest number); the speedup story is
	// the multicore model in EXPERIMENTS.md.
	fwSpec := warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		opts := sampling.Options{Shards: shards}
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sampling.RunSampledOpts(gcc, sampling.DefaultMachine(), reg, 2_000_000, 1, fwSpec, opts); err != nil {
					fail(err)
				}
			}
		})
		out = append(out, throughput(fmt.Sprintf("shard_sweep_funcwarm_%d", shards), "runs/s", 1, r))
	}

	// Sampling-strategy arms: one end-to-end run per registered regimen on
	// the same workload, budget, and warm-up. The stratified-uniform arm is
	// the pre-refactor warmup_R$BP (20%) path through the strategy seam
	// (byte-identical results); the others price their selection passes
	// (sketch-cache scoring, BBV profiling) against the fixed design.
	stratSpec := warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true}
	for _, strat := range regimen.All() {
		strat := strat
		p := regimen.Params{
			Program: gcc,
			Machine: sampling.DefaultMachine(),
			Regimen: reg,
			Total:   2_000_000,
			Seed:    1,
			Warmup:  stratSpec,
		}
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strat.Run(p); err != nil {
					fail(err)
				}
			}
		})
		out = append(out, throughput("regimen_"+strat.Name(), "runs/s", 1, r))
	}

	// One end-to-end figure at reduced scale: exercises the engine, the
	// sampled paths, and the reconstruction together.
	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := experiments.DefaultConfig()
			cfg.Scale = 0.1
			cfg.Workloads = []string{"twolf"}
			lab := experiments.NewLab(cfg)
			_, err := lab.Figure7()
			lab.Close()
			if err != nil {
				fail(err)
			}
		}
	})
	out = append(out, throughput("figure7", "runs/s", 1, r))

	return out
}

// loadSnapshot reads and validates a baseline snapshot. A truncated,
// corrupt, or empty file is an explicit error — never a silent zero-value
// baseline that would render every comparison as "(no baseline)" or a
// bogus delta.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&base); err != nil {
		return nil, fmt.Errorf("snapshot %s is corrupt or truncated: %w", path, err)
	}
	// json.Decode accepts `null` and `{}` without error; both decode to a
	// zero snapshot that must be rejected, as must trailing garbage after
	// a valid document.
	if dec.More() {
		return nil, fmt.Errorf("snapshot %s has trailing data after the JSON document", path)
	}
	if base.Label == "" || len(base.Metrics) == 0 {
		return nil, fmt.Errorf("snapshot %s is truncated or invalid: no label/metrics (re-run `make bench` to regenerate)", path)
	}
	for i, m := range base.Metrics {
		if m.Name == "" {
			return nil, fmt.Errorf("snapshot %s is invalid: metric %d has no name", path, i)
		}
	}
	return &base, nil
}

// printComparison diffs cur against the snapshot at path. Arms only one
// side knows — new arms this run, retired arms in the baseline — are noted
// and skipped rather than erroring, so a snapshot taken after new arms land
// still compares cleanly against an older baseline.
func printComparison(w io.Writer, path string, cur *Snapshot) error {
	base, err := loadSnapshot(path)
	if err != nil {
		return err
	}
	prev := make(map[string]Metric, len(base.Metrics))
	for _, m := range base.Metrics {
		prev[m.Name] = m
	}
	fmt.Fprintf(w, "\nvs %s (%s):\n", base.Label, base.Timestamp)
	seen := make(map[string]bool, len(cur.Metrics))
	for _, m := range cur.Metrics {
		seen[m.Name] = true
		p, ok := prev[m.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "%-26s %14.0f %-10s (new arm, not in baseline — skipped)\n", m.Name, m.Value, m.Unit)
		case p.Value == 0:
			fmt.Fprintf(w, "%-26s %14.0f %-10s (baseline value is zero — skipped)\n", m.Name, m.Value, m.Unit)
		default:
			fmt.Fprintf(w, "%-26s %14.0f %-10s %+7.1f%% (%.2fx)\n",
				m.Name, m.Value, m.Unit, 100*(m.Value/p.Value-1), m.Value/p.Value)
		}
	}
	for _, m := range base.Metrics {
		if !seen[m.Name] {
			fmt.Fprintf(w, "%-26s %14s %-10s (baseline-only arm, absent from this run — skipped)\n", m.Name, "-", m.Unit)
		}
	}
	return nil
}
