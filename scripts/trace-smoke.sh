#!/usr/bin/env sh
# Fabric-wide observability smoke test, run by `make trace-smoke` and CI.
#
# Launches one rsrc coordinator and two peer-mode rsrd workers, runs a small
# sweep through the cluster with `rsr -cluster ... -trace-out`, and asserts
# the captured artifact is a single merged Chrome trace of the whole fabric:
# it parses, has distinct process lanes for the coordinator and both
# workers, every span is tagged with the invocation's sweep ID, and the lanes
# share one clock: every worker span lies inside the coordinator lane's
# `sweep` span, which on one host holds by causality (a worker runs a job
# after its submission and reports it before the sweep's last member
# finishes). Also asserts that each process's /metrics reports that process:
# each worker's carries its engine families, and the coordinator's carries its
# sweep metrics and the workers' heartbeat-borne engine depth, but no
# rsr_engine_ family.
set -eu

WORKDIR="$(mktemp -d)"
trap 'kill "$RSRC_PID" "$RSRD_A_PID" "$RSRD_B_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

GO="${GO:-go}"
COORD="127.0.0.1:19910"
WORKER_A="127.0.0.1:18756"
WORKER_B="127.0.0.1:18757"

"$GO" build -o "$WORKDIR/rsrc" ./cmd/rsrc
"$GO" build -o "$WORKDIR/rsrd" ./cmd/rsrd
"$GO" build -o "$WORKDIR/rsr" ./cmd/rsr

"$WORKDIR/rsrc" -addr "$COORD" -casdir "$WORKDIR/cas" \
    >"$WORKDIR/rsrc.log" 2>&1 &
RSRC_PID=$!

wait_ready() {
    i=0
    until curl -fsS "http://$1/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "trace-smoke: $2 did not become ready" >&2
            cat "$WORKDIR/$2.log" >&2
            exit 1
        fi
        sleep 0.2
    done
}
wait_ready "$COORD" rsrc

"$WORKDIR/rsrd" -addr "$WORKER_A" -parallel 2 -peer \
    -coordinator "http://$COORD" -node worker-a \
    >"$WORKDIR/worker-a.log" 2>&1 &
RSRD_A_PID=$!
"$WORKDIR/rsrd" -addr "$WORKER_B" -parallel 2 -peer \
    -coordinator "http://$COORD" -node worker-b \
    >"$WORKDIR/worker-b.log" 2>&1 &
RSRD_B_PID=$!
wait_ready "$WORKER_A" worker-a
wait_ready "$WORKER_B" worker-b

TRACE="$WORKDIR/fabric-trace.json"
"$WORKDIR/rsr" -cluster "http://$COORD" -scale 0.02 -workload twolf \
    -trace-out "$TRACE" sweep >"$WORKDIR/sweep.txt" ||
    { echo "trace-smoke: cluster sweep failed" >&2
      cat "$WORKDIR/rsrc.log" "$WORKDIR/worker-a.log" "$WORKDIR/worker-b.log" >&2
      exit 1; }

# The merged-trace assertions need real JSON parsing, so they live in a tiny
# stdlib-only Go checker compiled on the spot.
cat >"$WORKDIR/tracecheck.go" <<'EOF'
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	b, err := os.ReadFile(os.Args[1])
	if err != nil {
		fail("read: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		fail("merged trace does not parse: %v", err)
	}
	lanes := map[string]int{} // process name -> pid
	spans := map[int]int{}    // pid -> ph:X span count
	sweeps := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				name, _ := ev.Args["name"].(string)
				lanes[name] = ev.Pid
			}
		case "X":
			spans[ev.Pid]++
			sweep, _ := ev.Args["sweep"].(string)
			if sweep == "" {
				fail("span %q lacks a sweep tag", ev.Name)
			}
			sweeps[sweep] = true
		}
	}
	for _, node := range []string{"coordinator", "worker-a", "worker-b"} {
		pid, ok := lanes[node]
		if !ok {
			fail("no process lane for %q (lanes: %v)", node, lanes)
		}
		if spans[pid] == 0 {
			fail("lane %q (pid %d) has no spans", node, pid)
		}
	}
	if len(sweeps) != 1 {
		fail("expected exactly one sweep tag across all spans, got %v", sweeps)
	}
	// One clock: the coordinator's sweep span (first submission to last
	// member finished) contains every worker span. Timestamps are printed to
	// the nanosecond, so the bound allows only float rounding.
	var from, to float64
	found := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == lanes["coordinator"] && ev.Name == "sweep" {
			from, to = ev.Ts, ev.Ts+ev.Dur
			found++
		}
	}
	if found != 1 {
		fail("coordinator lane has %d sweep spans, want 1", found)
	}
	const slack = 0.0005 // µs
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid == lanes["coordinator"] {
			continue
		}
		if ev.Ts < from-slack || ev.Ts+ev.Dur > to+slack {
			fail("worker span %q (pid %d) [%.3f, %.3f] µs lies outside the coordinator's sweep span [%.3f, %.3f]",
				ev.Name, ev.Pid, ev.Ts, ev.Ts+ev.Dur, from, to)
		}
	}
	fmt.Printf("trace-smoke: %d lanes, %d+%d+%d spans, sweep tag ok, worker spans inside the sweep span\n",
		len(lanes), spans[lanes["coordinator"]], spans[lanes["worker-a"]], spans[lanes["worker-b"]])
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trace-smoke: "+format+"\n", args...)
	os.Exit(1)
}
EOF
"$GO" run "$WORKDIR/tracecheck.go" "$TRACE" ||
    { echo "trace-smoke: merged trace check failed; trace follows" >&2
      head -c 4000 "$TRACE" >&2; echo >&2
      exit 1; }

# Each worker's own /metrics carries its engine families.
for W in "$WORKER_A" "$WORKER_B"; do
    if ! curl -fsS "http://$W/metrics" | grep -Fq 'rsr_engine_jobs_total'; then
        echo "trace-smoke: worker $W /metrics is missing rsr_engine_jobs_total" >&2
        exit 1
    fi
done

# The coordinator's /metrics reports the coordinator: its sweep metrics, its
# per-node straggler gauge and the engine depth workers heartbeat, and no
# worker's rsr_engine_ family.
METRICS="$WORKDIR/metrics.txt"
curl -fsS "http://$COORD/metrics" >"$METRICS"
for PATTERN in \
    'rsr_cluster_node_engine_queued{node="worker-a"}' \
    'rsr_cluster_sweep_duration_seconds_count' \
    'rsr_cluster_sweep_jobs{state="done"}' \
    'rsr_cluster_node_oldest_lease_age_ms{node="worker-b"}'
do
    if ! grep -Fq "$PATTERN" "$METRICS"; then
        echo "trace-smoke: coordinator /metrics is missing: $PATTERN" >&2
        cat "$METRICS" >&2
        exit 1
    fi
done
if grep -q 'rsr_engine_' "$METRICS"; then
    echo "trace-smoke: coordinator /metrics carries a worker's rsr_engine_ family" >&2
    grep 'rsr_engine_' "$METRICS" >&2
    exit 1
fi

# The live status view behind `rsr top` must see both workers.
curl -fsS "http://$COORD/v1/status" >"$WORKDIR/status.json"
for PATTERN in '"worker-a"' '"worker-b"' '"done"'; do
    if ! grep -q "$PATTERN" "$WORKDIR/status.json"; then
        echo "trace-smoke: /v1/status is missing $PATTERN" >&2
        cat "$WORKDIR/status.json" >&2
        exit 1
    fi
done

echo "trace-smoke: ok (merged fabric trace + per-process metrics + status)"
