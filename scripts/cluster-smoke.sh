#!/usr/bin/env sh
# End-to-end sweep-fabric smoke test, run by `make cluster-smoke` and CI.
#
# Launches one rsrc coordinator and two peer-mode rsrd workers, runs a small
# warm-up frontier through the cluster with `rsr -cluster`, and fails unless
# the output, durations masked, is byte-identical to the same frontier run on
# a single local engine, both workers' engines executed part of it, together
# they ran each of the sweep's distinct jobs exactly once, and the coordinator's
# -casdir holds one result blob per job and no quarantine. Also checks the
# coordinator's /v1/version handshake and that /metrics exposes the per-node
# scheduler families.
set -eu

SMOKE=cluster-smoke
COORD="127.0.0.1:19900"
WORKER_A="127.0.0.1:18746"
WORKER_B="127.0.0.1:18747"
. "$(dirname "$0")/fabric.sh"
fabric_up

# Mixed-version guard: the coordinator must advertise the protocol version.
curl -fsS "http://$COORD/v1/version" | grep -q '"protocol"' ||
    { echo "cluster-smoke: /v1/version lacks protocol field" >&2; exit 1; }

# The same small frontier, once through the fabric and once on a local
# engine. Its time columns differ between any two runs, so they are masked;
# every deterministic value must be byte-identical — the fabric's core
# contract.
"$WORKDIR/rsr" -cluster "http://$COORD" -scale 0.02 -workloads twolf frontier \
    >"$WORKDIR/cluster.txt" ||
    { echo "cluster-smoke: cluster frontier failed" >&2
      cat "$WORKDIR/rsrc.log" "$WORKDIR/worker-a.log" "$WORKDIR/worker-b.log" >&2
      exit 1; }
"$WORKDIR/rsr" -stats -scale 0.02 -workloads twolf frontier \
    >"$WORKDIR/local.txt" 2>"$WORKDIR/local.stats"
JOBS="$(sed -n 's/.* done=\([0-9][0-9]*\) .*/\1/p' "$WORKDIR/local.stats")"

if ! same_tables "$WORKDIR/local.txt" "$WORKDIR/cluster.txt"; then
    echo "cluster-smoke: cluster frontier differs from single-node run beyond its durations" >&2
    exit 1
fi

# The frontier submits all of its jobs before waiting on any, so the fabric has
# work for both workers at once: each one's engine must have executed some,
# and between them every distinct job the coordinator accepted exactly once —
# as many as the local engine executed.
EXECUTED=0
for W in "$WORKER_A" "$WORKER_B"; do
    DONE="$(curl -fsS "http://$W/v1/stats" | sed -n 's/.*"Done": *\([0-9][0-9]*\).*/\1/p' | head -n 1)"
    if [ "${DONE:-0}" -lt 1 ]; then
        echo "cluster-smoke: the engine of worker $W executed no job (Done=${DONE:-absent})" >&2
        cat "$WORKDIR/rsrc.log" >&2
        exit 1
    fi
    EXECUTED=$((EXECUTED + DONE))
done
SUBMITTED="$(curl -fsS "http://$COORD/metrics" |
    awk '$1 == "rsr_cluster_jobs_submitted_total" {print $2}')"
if [ "${JOBS:-0}" -lt 1 ] || [ "$EXECUTED" -ne "$JOBS" ] || [ "${SUBMITTED:-0}" -ne "$JOBS" ]; then
    echo "cluster-smoke: workers executed $EXECUTED jobs for ${SUBMITTED:-?} accepted; want each of the sweep's ${JOBS:-?} jobs exactly once" >&2
    cat "$WORKDIR/rsrc.log" >&2
    exit 1
fi

# Every result landed in the coordinator's store through its completion
# report: one blob per distinct job, and nothing failed verification.
BLOBS="$(find "$WORKDIR/cas/blobs" -type f ! -name '.tmp*' 2>/dev/null | wc -l | tr -d ' ')"
if [ "$BLOBS" -ne "$JOBS" ] || [ -e "$WORKDIR/cas/quarantine" ]; then
    echo "cluster-smoke: coordinator -casdir holds $BLOBS result blobs, want $JOBS, and no quarantine/:" >&2
    ls -R "$WORKDIR/cas" >&2
    exit 1
fi

# The scheduler's observability: both workers registered, the queue-depth
# gauge and the per-node in-flight gauges exposed, jobs flowed through.
METRICS="$WORKDIR/metrics.txt"
curl -fsS "http://$COORD/metrics" >"$METRICS"
for PATTERN in \
    'rsr_cluster_workers 2' \
    'rsr_cluster_queue_depth ' \
    'rsr_cluster_inflight{node="worker-a"}' \
    'rsr_cluster_inflight{node="worker-b"}' \
    'rsr_cluster_jobs_submitted_total' \
    'rsr_cluster_items_total{state="done"}'
do
    if ! grep -Fq "$PATTERN" "$METRICS"; then
        echo "cluster-smoke: coordinator /metrics is missing: $PATTERN" >&2
        cat "$METRICS" >&2
        exit 1
    fi
done

echo "cluster-smoke: ok (2-worker frontier byte-identical to single node but for durations, both workers executed jobs, $JOBS jobs run once each, $BLOBS result blobs stored)"
