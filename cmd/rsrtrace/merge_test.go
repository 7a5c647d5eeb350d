package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeTraceFile drops a Chrome trace file (object form) for merge tests.
func writeTraceFile(t *testing.T, dir, name string, events []map[string]any) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMergeTracesDistinctLanes(t *testing.T) {
	dir := t.TempDir()
	a := writeTraceFile(t, dir, "a.json", []map[string]any{
		{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
			"args": map[string]any{"name": "node worker-a"}},
		{"ph": "X", "name": "job-run", "cat": "engine", "pid": 1, "tid": 7,
			"ts": 100.0, "dur": 50.0},
	})
	b := writeTraceFile(t, dir, "b.json", []map[string]any{
		{"ph": "X", "name": "job-run", "cat": "engine", "pid": 1, "tid": 3,
			"ts": 90.0, "dur": 20.0},
	})

	ta, err := readTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := readTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mergeTraces(&buf, []namedTrace{ta, tb}); err != nil {
		t.Fatal(err)
	}

	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("merged trace not parseable: %v\n%s", err, buf.String())
	}

	// Both files used pid 1; the merge must keep their lanes apart.
	pids := map[float64]bool{}
	names := map[string]float64{} // process_name -> pid
	var spans int
	for _, ev := range out.TraceEvents {
		pid, _ := ev["pid"].(float64)
		switch ev["ph"] {
		case "X":
			spans++
			pids[pid] = true
			if ev["ts"] != 100.0 && ev["ts"] != 90.0 {
				t.Errorf("timestamp altered in offline merge: %v", ev["ts"])
			}
		case "M":
			args := ev["args"].(map[string]any)
			names[args["name"].(string)] = pid
		}
	}
	if spans != 2 || len(pids) != 2 {
		t.Fatalf("want 2 spans on 2 distinct pids, got %d spans on %v", spans, pids)
	}
	if _, ok := names["a.json: node worker-a"]; !ok {
		t.Errorf("a.json lane lost its original process name: %v", names)
	}
	if _, ok := names["b.json"]; !ok {
		t.Errorf("b.json lane not named after its file: %v", names)
	}
}

func TestReadTraceBareArray(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arr.json")
	if err := os.WriteFile(path,
		[]byte(`[{"ph":"X","name":"s","pid":2,"tid":1,"ts":1,"dur":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.events) != 1 {
		t.Fatalf("want 1 event, got %d", len(tr.events))
	}
}
