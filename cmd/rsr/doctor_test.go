package main

import (
	"strings"
	"testing"
)

// TestMaskDurations: every Go duration token is masked together with the
// padding in front of it, so right-aligned time columns of different widths
// read the same; percentages, labels and counts are not durations.
func TestMaskDurations(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"took 812µs", "took <dur>"},
		{"a 224.5ms b", "a <dur> b"},
		{"1.23s", " <dur>"},
		{"wall 1m2.5s,", "wall <dur>,"},
		{"twolf     2000        443ms", "twolf     2000 <dur>"},
		{"parser    2000      729.2ms", "parser    2000 <dur>"},
		{"err 5.03%", "err 5.03%"},
		{"R$BP (20%)", "R$BP (20%)"},
		{"clusters 2000", "clusters 2000"},
		{"3min", "3min"},
	} {
		if got := maskDurations(c.in); got != c.want {
			t.Errorf("maskDurations(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if d := tableDiff("x      1.5s\n", "x 2m3s\n"); d != "" {
		t.Errorf("tables differing in a duration differ: %s", d)
	}
	if d := tableDiff("x 1.5s 5.03%\n", "x 1.5s 5.04%\n"); !strings.Contains(d, "line 1") {
		t.Errorf("tables differing in a percentage: diff %q, want line 1 named", d)
	}
	if d := lineDiff("a\nb\n", "a\nb"); !strings.Contains(d, "line 2") {
		t.Errorf("a lost final newline: diff %q, want line 2 named", d)
	}
}

// TestMetricsCompareExactly: a sample matches by its name, labels and exact
// value, never as a substring of another sample's line.
func TestMetricsCompareExactly(t *testing.T) {
	m, err := parseMetrics(`# HELP rsr_cluster_workers Live workers.
# TYPE rsr_cluster_workers gauge
rsr_cluster_workers 20
rsr_cluster_inflight{node="worker-a"} 1
rsr_engine_jobs_total{method="R$BP (20%)",state="done"} 3
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.want("rsr_cluster_workers", 2) == nil {
		t.Error("rsr_cluster_workers 20 satisfied a want of 2")
	}
	if err := m.want("rsr_cluster_workers", 20); err != nil {
		t.Error(err)
	}
	if err := m.want(`rsr_engine_jobs_total{method="R$BP (20%)",state="done"}`, 3); err != nil {
		t.Error(err)
	}
	for _, present := range []string{"rsr_cluster_inflight", `rsr_cluster_inflight{node="worker-a"}`, "rsr_engine_jobs_total"} {
		if err := m.has(present); err != nil {
			t.Error(err)
		}
	}
	for _, absent := range []string{"rsr_cluster_worker", "rsr_cluster_inflight{", `rsr_cluster_inflight{node="worker-b"}`, "rsr_engine_jobs"} {
		if m.has(absent) == nil {
			t.Errorf("has(%q) held", absent)
		}
	}
	if _, err := parseMetrics("rsr_cluster_workers two\n"); err == nil {
		t.Error("a malformed sample parsed")
	}
}

// fabricTrace is a well-formed merged trace of a 3-lane sweep tagged rsr-1,
// the coordinator's sweep span over [0, 100] µs.
func fabricTrace() chromeTrace {
	tagged := map[string]any{"sweep": "rsr-1"}
	return chromeTrace{TraceEvents: []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "coordinator"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "worker-a"}},
		{Name: "process_name", Ph: "M", Pid: 3, Args: map[string]any{"name": "worker-b"}},
		{Name: "sweep", Ph: "X", Pid: 1, Ts: 0, Dur: 100, Args: tagged},
		{Name: "job-run", Ph: "X", Pid: 2, Ts: 10, Dur: 20, Args: tagged},
		{Name: "job-run", Ph: "X", Pid: 3, Ts: 40, Dur: 60, Args: tagged},
	}}
}

// TestCheckFabricTrace: the merged-trace check passes a well-formed trace
// and fails a worker span outside the sweep span, a second sweep tag, a
// missing lane and an untagged span.
func TestCheckFabricTrace(t *testing.T) {
	if tag, err := checkFabricTrace(fabricTrace()); err != nil || tag != "rsr-1" {
		t.Fatalf("well-formed trace: tag %q, err %v", tag, err)
	}
	for name, mutate := range map[string]func(*chromeTrace){
		"worker span outside the sweep span": func(tr *chromeTrace) { tr.TraceEvents[5].Dur = 61 },
		"worker span before the sweep span":  func(tr *chromeTrace) { tr.TraceEvents[4].Ts = -1 },
		"two sweep tags": func(tr *chromeTrace) {
			tr.TraceEvents[4].Args = map[string]any{"sweep": "rsr-2"}
		},
		"untagged span":        func(tr *chromeTrace) { tr.TraceEvents[4].Args = nil },
		"missing lane":         func(tr *chromeTrace) { tr.TraceEvents = tr.TraceEvents[:5] },
		"lane without spans":   func(tr *chromeTrace) { tr.TraceEvents[5].Pid = 2 },
		"no sweep span":        func(tr *chromeTrace) { tr.TraceEvents[3].Name = "job-run" },
		"a second sweep span":  func(tr *chromeTrace) { tr.TraceEvents = append(tr.TraceEvents, tr.TraceEvents[3]) },
		"sweep span on worker": func(tr *chromeTrace) { tr.TraceEvents[3].Pid = 2 },
	} {
		tr := fabricTrace()
		mutate(&tr)
		if _, err := checkFabricTrace(tr); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// TestLeaseLogged: the sweep attribute of a `lease started` line matches
// the tag exactly.
func TestLeaseLogged(t *testing.T) {
	log := `time=2026-01-02T03:04:05Z level=INFO msg="lease started" job=ab12 label="twolf/R$BP (20%)" sweep=rsr-10` + "\n"
	if !leaseLogged(log, "rsr-10") {
		t.Error("the lease line of sweep rsr-10 was not found")
	}
	if leaseLogged(log, "rsr-1") {
		t.Error("sweep rsr-10's lease line matched sweep rsr-1")
	}
	if leaseLogged(`msg="lease ended" sweep=rsr-10`, "rsr-10") {
		t.Error("a line other than lease started matched")
	}
}

// TestDoctorRefusesUnknownCheck: a missing or unknown check is a usage
// error, exit status 2, and starts nothing.
func TestDoctorRefusesUnknownCheck(t *testing.T) {
	for _, name := range []string{"", "nope", "trace"} {
		if status := runDoctor(name); status != 2 {
			t.Errorf("rsr doctor %q exited %d, want 2", name, status)
		}
	}
}

// TestStatField reads a count off rsr -stats's engine line.
func TestStatField(t *testing.T) {
	stats := "engine: workers=2 done=26 failed=0 cache hits=0 (disk 0) misses=26 coalesced=0\n"
	if n, err := statField(stats, "done"); err != nil || n != 26 {
		t.Errorf("done = %d, %v; want 26", n, err)
	}
	if _, err := statField(stats, "replayed"); err == nil {
		t.Error("a missing field was found")
	}
}
