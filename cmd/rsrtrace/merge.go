package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Offline Chrome-trace merging: `rsrtrace -merge a.json b.json` folds several
// trace files (rsr -trace-out output, or a node's /v1/trace rendered to a
// Chrome trace) into one, giving each input file its own process-lane block
// so the sources stay visually distinct in the viewer. Timestamps are copied
// as they are: like the coordinator's live fabric merge, it never shifts one
// source against another.

// namedTrace is one parsed input file.
type namedTrace struct {
	name   string
	events []map[string]any
}

// readTrace parses one Chrome trace-event JSON file (object form with a
// traceEvents array, or a bare event array).
func readTrace(path string) (namedTrace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return namedTrace{}, err
	}
	var obj struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &obj); err != nil || obj.TraceEvents == nil {
		var arr []map[string]any
		if aerr := json.Unmarshal(b, &arr); aerr != nil {
			return namedTrace{}, fmt.Errorf("%s: not a Chrome trace (object or array form): %v", path, err)
		}
		obj.TraceEvents = arr
	}
	return namedTrace{name: filepath.Base(path), events: obj.TraceEvents}, nil
}

// mergeTraces writes one combined Chrome trace. Every (input file, original
// pid) pair becomes a fresh pid in the output, so lanes from different files
// never collide; each remapped pid keeps its original process_name metadata
// when present, prefixed with the source file, and gets a file-named lane
// otherwise.
func mergeTraces(w io.Writer, traces []namedTrace) error {
	type lane struct{ file, origName string }
	lanes := map[int]*lane{} // new pid -> provenance
	var out []map[string]any
	nextPid := 0
	for _, tr := range traces {
		pidMap := map[float64]int{}
		remap := func(old float64) int {
			p, ok := pidMap[old]
			if !ok {
				nextPid++
				p = nextPid
				pidMap[old] = p
				lanes[p] = &lane{file: tr.name}
			}
			return p
		}
		for _, ev := range tr.events {
			old, _ := ev["pid"].(float64)
			p := remap(old)
			// process_name metadata is captured into the lane table (and
			// dropped): the merged trace re-emits one canonical name per
			// lane below, so inputs with or without metadata render alike.
			if ev["ph"] == "M" && ev["name"] == "process_name" {
				if args, ok := ev["args"].(map[string]any); ok {
					if n, ok := args["name"].(string); ok {
						lanes[p].origName = n
					}
				}
				continue
			}
			cp := make(map[string]any, len(ev))
			for k, v := range ev {
				cp[k] = v
			}
			cp["pid"] = p
			out = append(out, cp)
		}
	}

	pids := make([]int, 0, len(lanes))
	for p := range lanes {
		pids = append(pids, p)
	}
	sort.Ints(pids)
	meta := make([]map[string]any, 0, len(pids))
	for _, p := range pids {
		l := lanes[p]
		name := l.file
		if l.origName != "" {
			name = l.file + ": " + l.origName
		}
		meta = append(meta, map[string]any{
			"ph": "M", "name": "process_name", "pid": p, "tid": 0,
			"args": map[string]any{"name": name},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents": append(meta, out...),
	})
}

// runMerge implements `rsrtrace -merge file...`, writing to the shared out
// writer (-o redirects it).
func runMerge(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs at least one trace file")
	}
	traces := make([]namedTrace, 0, len(paths))
	for _, p := range paths {
		tr, err := readTrace(p)
		if err != nil {
			return err
		}
		traces = append(traces, tr)
	}
	return mergeTraces(out, traces)
}
