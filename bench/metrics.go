package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one number the benchmark reports. The two tables below are
// the single definition of every metric name; BENCHMARK.json repeats them
// (TestBenchmarkJSONMatchesTables keeps the two in step) and README.md says
// what each should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline by which it may worsen
	// Exact marks simulated statistics and counts that must repeat bit for
	// bit between two runs of the same code at the same seed; -agree compares
	// them for equality instead of against a bound.
	Exact bool
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "est_s.none", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "est_s.smarts", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "est_s.rsr20", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rsr_speedup", Unit: "x", Better: "higher", Bound: 0.15},
	{Name: "ipc_acc_pct.smarts", Unit: "%", Better: "higher", Bound: 0.15, Exact: true},
	{Name: "ipc_acc_pct.rsr20", Unit: "%", Better: "higher", Bound: 0.15, Exact: true},
	{Name: "alloc_mb.smarts", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb.rsr20", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run. Every workload
// reports every one; a metric whose layer the workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "host_jitter_pct", Unit: "%", Better: "lower"},

	{Name: "ipc_err_pct.smarts", Unit: "%", Better: "lower", Exact: true},
	{Name: "ipc_err_pct.rsr20", Unit: "%", Better: "lower", Exact: true},
	{Name: "ipc_err_pct.twophase", Unit: "%", Better: "lower", Exact: true},
	{Name: "est_s.twophase", Unit: "s", Better: "lower"},

	{Name: "funcsim.cold_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "funcsim.cold_instr", Unit: "count", Better: "lower", Exact: true},
	{Name: "funcsim.feed_ns_per_instr", Unit: "ns", Better: "lower"},

	{Name: "warmup.observe_ns_per_instr.smarts", Unit: "ns", Better: "lower"},
	{Name: "warmup.observe_ns_per_instr.rsr20", Unit: "ns", Better: "lower"},
	{Name: "warmup.endskip_ms_per_region.rsr20", Unit: "ms", Better: "lower"},
	{Name: "warmup.warm_ops.smarts", Unit: "count", Better: "lower", Exact: true},
	{Name: "warmup.logged_records.rsr20", Unit: "count", Better: "lower", Exact: true},
	{Name: "warmup.capture_ns_per_instr.smarts", Unit: "ns", Better: "lower"},
	{Name: "warmup.capture_ns_per_instr.rsr20", Unit: "ns", Better: "lower"},
	{Name: "warmup.seal_ms_per_region.rsr20", Unit: "ms", Better: "lower"},
	{Name: "warmup.adopt_ms_per_region.smarts", Unit: "ms", Better: "lower"},
	{Name: "warmup.adopt_ms_per_region.rsr20", Unit: "ms", Better: "lower"},
	{Name: "warmup.endskip_planned_ms_per_region.rsr20", Unit: "ms", Better: "lower"},
	{Name: "warmup.capture_overhead_pct.smarts", Unit: "%", Better: "lower"},
	{Name: "warmup.capture_overhead_pct.rsr20", Unit: "%", Better: "lower"},

	{Name: "core.recon_scanned.rsr20", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.recon_applied.rsr20", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.recon_useful_ratio.rsr20", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "core.pred_scanned.rsr20", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.pred_exact.rsr20", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.pred_inferred.rsr20", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.ondemand_ns_per_branch.rsr20", Unit: "ns", Better: "lower"},
	{Name: "bpred.predict_ns_per_branch.smarts", Unit: "ns", Better: "lower"},
	{Name: "bpred.updates.smarts", Unit: "count", Better: "lower", Exact: true},

	{Name: "ooo.hot_ns_per_instr.smarts", Unit: "ns", Better: "lower"},
	{Name: "ooo.hot_ns_per_instr.rsr20", Unit: "ns", Better: "lower"},
	{Name: "ooo.full_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "ooo.hot_instr", Unit: "count", Better: "lower", Exact: true},
	{Name: "ooo.cycles.smarts", Unit: "count", Better: "lower", Exact: true},
	{Name: "ooo.cycles.rsr20", Unit: "count", Better: "lower", Exact: true},
	{Name: "ooo.mispredict_ratio.smarts", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "ooo.mispredict_ratio.rsr20", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "mem.l1i_miss_ratio.smarts", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mem.l1i_miss_ratio.rsr20", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mem.l1d_miss_ratio.smarts", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mem.l1d_miss_ratio.rsr20", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mem.l2_miss_ratio.smarts", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mem.l2_miss_ratio.rsr20", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mem.warm_updates.smarts", Unit: "count", Better: "lower", Exact: true},

	{Name: "sampling.ledger_coverage", Unit: "ratio", Better: "higher"},
	{Name: "sampling.controller_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "sampling.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "sampling.prepass_s", Unit: "s", Better: "lower"},
	{Name: "sampling.producer_cold_s", Unit: "s", Better: "lower"},
	{Name: "sampling.producer_seal_s", Unit: "s", Better: "lower"},
	{Name: "sampling.consumer_wait_s", Unit: "s", Better: "lower"},
	{Name: "sampling.consumer_adopt_s", Unit: "s", Better: "lower"},
	{Name: "sampling.consumer_sim_s", Unit: "s", Better: "lower"},
	{Name: "sampling.serial_fraction", Unit: "ratio", Better: "lower"},

	{Name: "regimen.select_s.twophase", Unit: "s", Better: "lower"},
	{Name: "regimen.measure_s.twophase", Unit: "s", Better: "lower"},
	{Name: "regimen.profile_instr.twophase", Unit: "count", Better: "lower", Exact: true},
	{Name: "regimen.func_instr.twophase", Unit: "count", Better: "lower", Exact: true},

	{Name: "sweep_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "resweep_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.exec_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "engine.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.worker_utilisation", Unit: "ratio", Better: "higher"},
	{Name: "engine.cache_store_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "engine.cache_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.cache_hits", Unit: "count", Better: "higher"},
	{Name: "engine.disk_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "engine.coalesced", Unit: "count", Better: "higher"},
	{Name: "engine.dedup_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "engine.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.failed", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.cache_load_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.cache_load_us_p95", Unit: "us", Better: "lower"},
}

// reading is one reported metric: the headline value and, for a metric
// measured over several rounds, the distribution it was picked from.
type reading struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	P25    float64 `json:"p25,omitempty"`
	Median float64 `json:"median,omitempty"`
	P75    float64 `json:"p75,omitempty"`
	Min    float64 `json:"min,omitempty"`
}

// report collects one workload run's readings and its correctness tally.
type report struct {
	defs      []metricDef
	Readings  map[string]reading `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	problems  []string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, Readings: make(map[string]reading, len(defs))}
}

func (r *report) unit(name string) string {
	for _, d := range r.defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in this run's table", name))
}

// set records a single-valued reading. A name outside the run's table is a
// bug in the harness, not a measurement outcome.
func (r *report) set(name string, v float64) {
	r.Readings[name] = reading{Value: v, Unit: r.unit(name)}
}

// setDist records a reading measured once per round, with its distribution;
// pick chooses the headline.
func (r *report) setDist(name string, xs []float64, pick func(quartiles) float64) {
	q := quartilesOf(xs)
	r.Readings[name] = reading{Value: pick(q), Unit: r.unit(name), N: len(xs), P25: q.P25, Median: q.Median, P75: q.P75, Min: q.Min}
}

// setSeconds records a per-round timing: the headline is the quiet quartile.
func (r *report) setSeconds(name string, xs []float64) {
	r.setDist(name, xs, func(q quartiles) float64 { return q.P25 })
}

// setQuietSum records the seconds per round of an operation made of parts
// timed separately (an arm's programs): series[i] holds part i's seconds in
// each round. The headline is the sum of the parts' quiet quartiles — a burst
// of interference then spoils one part of a round, not the round — and the
// distribution shown is that of the round totals.
func (r *report) setQuietSum(name string, series [][]float64) {
	var value float64
	totals := make([]float64, len(series[0]))
	for _, part := range series {
		value += quartilesOf(part).P25
		for round, s := range part {
			totals[round] += s
		}
	}
	r.setDist(name, totals, func(quartiles) float64 { return value })
}

// setSpeedup derives rsr_speedup from the two est_s readings already set.
func (r *report) setSpeedup() {
	r.set("rsr_speedup", ratio(r.Readings["est_s.smarts"].Value, r.Readings["est_s.rsr20"].Value))
}

// setRate records a per-round rate: the quiet quartile of a rate is p75.
func (r *report) setRate(name string, xs []float64) {
	r.setDist(name, xs, func(q quartiles) float64 { return q.P75 })
}

// op tallies one attempted operation or check; a failure is kept for the
// diagnostic printout and turns the run's exit status non-zero.
func (r *report) op(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// finish fills metrics the workload does not exercise with 0, checks that
// every reading is a finite number, and closes the tally into fail_ratio.
func (r *report) finish() {
	for _, d := range r.defs {
		if _, ok := r.Readings[d.Name]; !ok {
			r.Readings[d.Name] = reading{Unit: d.Unit}
		}
	}
	for name, rd := range r.Readings {
		r.op(!math.IsNaN(rd.Value) && !math.IsInf(rd.Value, 0), "metric %s is not finite", name)
	}
	if _, ok := r.Readings["fail_ratio"]; ok {
		r.set("fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)))
	}
}

func (r *report) correct() bool { return r.Failed == 0 }

// print writes the readings as a table in the run's table order.
func (r *report) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "%-46s %14s %-6s %4s %12s %12s %12s %12s\n", workload, "value", "unit", "n", "p25", "median", "p75", "min")
	for _, d := range r.defs {
		rd := r.Readings[d.Name]
		if rd.N == 0 {
			fmt.Fprintf(w, "  %-44s %14.6g %-6s\n", d.Name, rd.Value, rd.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-6s %4d %12.6g %12.6g %12.6g %12.6g\n", d.Name, rd.Value, rd.Unit, rd.N, rd.P25, rd.Median, rd.P75, rd.Min)
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
}
