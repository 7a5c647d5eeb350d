package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -agree needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one metric on one workload.
const (
	verdictPass       = "pass"
	verdictUnresolved = "unresolved"
	verdictFail       = "fail"
)

// spreadOf is a reading's interquartile range as a share of its median, 0
// for a single-valued reading.
func spreadOf(r reading) float64 {
	if r.N == 0 || r.Median == 0 {
		return 0
	}
	return (r.P75 - r.P25) / r.Median
}

// judge compares reading b (the later set) with a (the earlier). An exact
// metric must repeat bit for bit. A bounded one passes when b is no worse
// than a by more than the bound; beyond the bound it fails, unless either
// side's own round-to-round spread is wider than the bound, in which case
// the pair cannot resolve a difference that small and is reported as such.
func judge(a, b reading, better string, bound float64, exact bool) (string, float64) {
	worse := ratio(b.Value-a.Value, a.Value)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case exact && a.Value != b.Value:
		return verdictFail, worse
	case exact || worse <= bound:
		return verdictPass, worse
	case spreadOf(a) > bound || spreadOf(b) > bound:
		return verdictUnresolved, worse
	}
	return verdictFail, worse
}

// agreeCmd prints one row per workload and bounded metric, then every exact
// per-layer metric that did not repeat, and returns the exit status.
func agreeCmd(boundsPath, pathA, pathB string, stdout, stderr io.Writer) int {
	var bf benchmarkFile
	var a, b resultSet
	for path, v := range map[string]any{boundsPath: &bf, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(stderr, "bench: %s was run at seed %d, %s at seed %d: exact metrics only repeat at one seed\n", pathA, a.Seed, pathB, b.Seed)
		return 2
	}
	exact := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		exact[d.Name] = d.Exact
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	counts := make(map[string]int)
	fmt.Fprintf(stdout, "%-20s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, wname := range names {
		wa, wb := a.Workloads[wname], b.Workloads[wname]
		if wb.Metrics == nil {
			fmt.Fprintf(stdout, "%-20s missing from %s\n", wname, pathB)
			counts[verdictFail]++
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(stdout, "%-20s correctness gate failed (A %v, B %v)\n", wname, wa.Correct, wb.Correct)
			counts[verdictFail]++
		}
		for _, m := range bf.EndToEnd {
			verdict, worse := judge(wa.Metrics[m.Name], wb.Metrics[m.Name], m.Better, m.Bound, exact[m.Name])
			counts[verdict]++
			fmt.Fprintf(stdout, "%-20s %-22s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", wname, m.Name,
				wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value, 100*worse, 100*m.Bound, verdict)
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			if verdict, _ := judge(wa.Metrics[d.Name], wb.Metrics[d.Name], d.Better, 0, true); verdict != verdictPass {
				counts[verdict]++
				fmt.Fprintf(stdout, "%-20s %-22s %14.6g %14.6g  exact metric did not repeat  %s\n", wname, d.Name,
					wa.Metrics[d.Name].Value, wb.Metrics[d.Name].Value, verdict)
			}
		}
	}
	fmt.Fprintf(stdout, "%d pass, %d unresolved, %d fail\n", counts[verdictPass], counts[verdictUnresolved], counts[verdictFail])
	if counts[verdictFail] > 0 {
		return 1
	}
	return 0
}
