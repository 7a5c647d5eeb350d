package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rsr/internal/sampling"
)

// TestSmoke runs every workload at -quick scale, untraced and traced, and
// checks the shape of what comes out: every metric of the run's table exactly
// once, with its unit and a finite value, the end-to-end ones never 0, and
// the correctness gate passing. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostProcs))
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{Seed: 2007, Seconds: 0, Trace: traced, Quick: true, OutDir: t.TempDir()}
			rep, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Readings) != len(defs) {
				t.Errorf("%s trace=%v: %d readings, the table has %d", w.Name, traced, len(rep.Readings), len(defs))
			}
			for _, d := range defs {
				rd, ok := rep.Readings[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not reported", w.Name, traced, d.Name)
				case rd.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.Name, traced, d.Name, rd.Unit, d.Unit)
				case math.IsNaN(rd.Value) || math.IsInf(rd.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, traced, d.Name, rd.Value)
				case !traced && rd.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			if !rep.correct() || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: gate failed (%d of %d): %s", w.Name, traced, rep.Failed, rep.Attempted, strings.Join(rep.problems, "; "))
			}
			if traced && rep.Readings["ipc_err_pct.smarts"].Value <= 0 {
				t.Errorf("%s: traced run reports no IPC error", w.Name)
			}
		}
	}
}

// TestSeedMovesClusters checks that the seed reaches the inputs: another
// seed still passes the gate, with different cluster positions.
func TestSeedMovesClusters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostProcs))
	w := workloads[0].quick()
	m := sampling.DefaultMachine()
	in, err := setUp(w, m)
	if err != nil {
		t.Fatal(err)
	}
	starts := func(seed int64) []uint64 {
		rep := newReport(nil)
		ar := runArm(w, m, in, armRSR20, seed, 0, rep)
		if !rep.correct() {
			t.Fatalf("seed %d: %v", seed, rep.problems)
		}
		var out []uint64
		for _, c := range ar.clusters[0] {
			out = append(out, c.Start)
		}
		return out
	}
	a, b := starts(2007), starts(7)
	same := len(a) == len(b)
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Errorf("seeds 2007 and 7 place the clusters identically: %v", a)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the harness's %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
