package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"rsr/internal/fault"
	"rsr/internal/obs"
	"rsr/internal/warmup"
)

// snapValue finds one series by family name and label subset in a registry
// snapshot.
func snapValue(t *testing.T, snaps []obs.MetricSnapshot, name string, labels map[string]string) float64 {
	t.Helper()
	for _, m := range snaps {
		if m.Name != name {
			continue
		}
	series:
		for _, s := range m.Series {
			for k, v := range labels {
				if s.Labels[k] != v {
					continue series
				}
			}
			return s.Value
		}
	}
	t.Fatalf("no series %s%v in snapshot", name, labels)
	return 0
}

// TestEngineMetrics runs jobs through an instrumented engine and checks the
// scrape-time mirror of Stats plus the families fed from inside the runs.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	e := New(Options{Workers: 2, Metrics: reg, Tracer: tr})
	defer e.Close()

	job := sampledJob("twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 100, Cache: true, BPred: true})
	if _, err := e.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	// Second submission is a memory cache hit.
	if _, err := e.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}

	snaps := reg.Snapshot()
	st := e.Stats()
	for _, c := range []struct {
		name   string
		labels map[string]string
		want   int64
	}{
		{"rsr_engine_jobs_total", map[string]string{"state": "done"}, st.Done},
		{"rsr_engine_jobs_total", map[string]string{"state": "failed"}, 0},
		{"rsr_engine_cache_total", map[string]string{"result": "miss"}, 1},
		{"rsr_engine_cache_total", map[string]string{"result": "hit_memory"}, 1},
		{"rsr_engine_cache_total", map[string]string{"result": "hit_disk"}, 0},
		{"rsr_engine_jobs_queued", nil, 0},
		{"rsr_engine_jobs_running", nil, 0},
		{"rsr_engine_panics_total", nil, 0},
	} {
		if got := snapValue(t, snaps, c.name, c.labels); int64(got) != c.want {
			t.Errorf("%s%v = %v, want %d", c.name, c.labels, got, c.want)
		}
	}

	// The run itself streamed per-phase metrics into the same registry.
	if n := snapValue(t, snaps, "rsr_sampling_runs_total", map[string]string{"kind": "sampled"}); n != 1 {
		t.Errorf("sampling runs counter = %v, want 1", n)
	}
	if n := snapValue(t, snaps, "rsr_sampling_clusters_total", nil); int(n) != testRegimen.NumClusters {
		t.Errorf("clusters counter = %v, want %d", n, testRegimen.NumClusters)
	}
	if n := snapValue(t, snaps, "rsr_warmup_recon_applied_total", map[string]string{"method": job.Warmup.Label()}); n == 0 {
		t.Error("reverse run applied no reconstruction records")
	}

	// Prometheus exposition carries the histogram with one done observation.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`rsr_engine_job_seconds_count{state="done"} 1`)) {
		t.Errorf("exposition lacks job latency count:\n%s", buf.String())
	}
}

// TestEngineSpans checks the engine-side trace: every executed job gets a
// cache-load and a job-run span on its own track, and the job's per-cluster
// phase spans share the trace.
func TestEngineSpans(t *testing.T) {
	tr := obs.NewTracer(0)
	e := New(Options{Workers: 2, Tracer: tr})
	defer e.Close()

	job := sampledJob("parser", warmup.Spec{Kind: warmup.KindSMARTS, Cache: true, BPred: true})
	if _, err := e.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}

	count := spanCounts(t, tr)
	if count["cache-load"] != 1 || count["job-run"] != 1 {
		t.Fatalf("engine spans = %v, want one cache-load and one job-run", count)
	}
	if count["hot-sim"] != testRegimen.NumClusters {
		t.Fatalf("hot-sim spans = %d, want %d", count["hot-sim"], testRegimen.NumClusters)
	}
}

// TestStrategyJobSpans: a strategy job records the walker's per-cluster spans
// and phase metrics as an unnamed job does — one hot-sim span and one counted
// cluster per measured region, across both of two-phase-stratified's passes.
func TestStrategyJobSpans(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	e := New(Options{Workers: 1, Metrics: reg, Tracer: tr})
	defer e.Close()

	job := sampledJob("twolf", warmup.Spec{Kind: warmup.KindReverse, Percent: 20, Cache: true, BPred: true})
	job.Strategy = "two-phase-stratified"
	res, err := e.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	regions := len(res.Outcome.Clusters)
	if got := spanCounts(t, tr)["hot-sim"]; got != regions || regions == 0 {
		t.Errorf("hot-sim spans = %d, want one per measured region (%d)", got, regions)
	}
	if n := snapValue(t, reg.Snapshot(), "rsr_sampling_clusters_total", nil); int(n) != regions {
		t.Errorf("clusters counter = %v, want %d", n, regions)
	}
}

// spanCounts parses tr's Chrome trace and counts its spans by name.
func spanCounts(t *testing.T, tr *obs.Tracer) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	count := map[string]int{}
	for _, ev := range doc.TraceEvents {
		count[ev.Name]++
	}
	return count
}

// TestEngineFailureSpansAndMetrics drives an injected run error through an
// instrumented engine: the job fails after one run, counted as one failed job
// with one job-run span.
func TestEngineFailureSpansAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	job := sampledJob("twolf", warmup.Spec{Kind: warmup.KindNone})
	inj := fault.New(3, fault.Rule{Point: fault.JobRun, Kind: fault.KindError, Prob: 1})
	e := New(Options{Workers: 1, Fault: inj, Metrics: reg, Tracer: tr})
	defer e.Close()

	if _, err := e.Run(context.Background(), job); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	snaps := reg.Snapshot()
	if n := snapValue(t, snaps, "rsr_engine_jobs_total", map[string]string{"state": "failed"}); n != 1 {
		t.Fatalf("failed jobs counter = %v, want 1", n)
	}
	if runs := spanCounts(t, tr)["job-run"]; runs != 1 {
		t.Fatalf("job-run spans = %d, want 1", runs)
	}
}
