package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestWriteMergedChromeTrace pins the fabric trace writer: one named lane per
// dump in dump order, every span once, sorted by start time, each timestamp
// moved by the same origin (the earliest start) and nothing else, and span
// args plus the sweep tag rendered, with node names JSON-escaped.
func TestWriteMergedChromeTrace(t *testing.T) {
	const origin = int64(1_700_000_000_000_000_000)
	oddName := "worker \"a\"\\\n\t☃"
	dumps := []TraceDump{
		{Node: "coordinator", Spans: []SpanDump{
			{Name: "sweep", Cat: "coord", Sweep: "s1", Start: origin, Dur: 9_000_000,
				Args: []SpanArg{{Key: "jobs", Val: 2}}},
		}},
		{Node: oddName, Spans: []SpanDump{
			{Name: "job-run", Cat: "engine", Sweep: "s1", TID: 3, Start: origin + 2_500_250, Dur: 1_000,
				Args: []SpanArg{{Key: "attempt", Val: 1}, {Key: "ok", Val: 1}}},
			{Name: "cache-load", Cat: "engine", Sweep: "s1", TID: 3, Start: origin + 1_000_000, Dur: 500},
		}},
		{Node: "worker-b", Spans: []SpanDump{
			{Name: "job-run", Cat: "engine", TID: 7, Start: origin + 250_000, Dur: 2_000_000},
		}},
	}
	var buf bytes.Buffer
	if err := WriteMergedChromeTrace(&buf, dumps); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int64          `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace does not parse: %v\n%s", err, buf.String())
	}
	evs := doc.TraceEvents
	if len(evs) != len(dumps)+4 {
		t.Fatalf("%d events, want %d lane names and 4 spans:\n%s", len(evs), len(dumps), buf.String())
	}
	for i, d := range dumps {
		ev := evs[i]
		if ev.Ph != "M" || ev.Name != "process_name" || ev.Pid != i+1 || ev.Args["name"] != d.Node {
			t.Errorf("event %d = %+v, want process_name %q for pid %d", i, ev, d.Node, i+1)
		}
	}

	// Timestamps in microseconds from the coordinator's sweep start, the
	// earliest span; worker-b's lane is not shifted against the others.
	type span struct {
		name, cat string
		pid       int
		tid       int64
		ts, dur   float64
		args      map[string]any
	}
	want := []span{
		{"sweep", "coord", 1, 0, 0, 9_000, map[string]any{"jobs": 2.0, "sweep": "s1"}},
		{"job-run", "engine", 3, 7, 250, 2_000, nil},
		{"cache-load", "engine", 2, 3, 1_000, 0.5, map[string]any{"sweep": "s1"}},
		{"job-run", "engine", 2, 3, 2_500.25, 1, map[string]any{"attempt": 1.0, "ok": 1.0, "sweep": "s1"}},
	}
	for i, w := range want {
		ev := evs[len(dumps)+i]
		got := span{ev.Name, ev.Cat, ev.Pid, ev.Tid, ev.Ts, ev.Dur, ev.Args}
		if ev.Ph != "X" || !reflect.DeepEqual(got, w) {
			t.Errorf("span %d = %+v (ph %q), want %+v", i, got, ev.Ph, w)
		}
	}
}
