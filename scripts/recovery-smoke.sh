#!/usr/bin/env sh
# Coordinator crash-recovery smoke test, run by `make recovery-smoke` and CI.
#
# Launches one journaled rsrc coordinator and two peer-mode rsrd workers,
# starts a sweep (rsr frontier) through the fabric, SIGKILLs the coordinator
# as soon as its write-ahead journal records a lease (work is in flight),
# leaves the fabric headless long enough for both workers to cross their
# heartbeat-failure threshold, restarts the coordinator on the same journal
# and CAS directory, and fails unless the sweep output is byte-identical to a
# single-node run (durations masked) and the two workers together executed
# each of the sweep's jobs exactly once. Also checks that the restarted
# coordinator's /metrics shows journal replay and that both workers
# reconnected rather than rejoining fresh.
set -eu

SMOKE=recovery-smoke
COORD="127.0.0.1:19920"
WORKER_A="127.0.0.1:18766"
WORKER_B="127.0.0.1:18767"
. "$(dirname "$0")/fabric.sh"
JOURNAL="$WORKDIR/journal"
fabric_up -journal "$JOURNAL"

# The sweep runs in the background; the client absorbs the restart (transient
# retries + idempotent resubmission), so it must finish on its own.
"$WORKDIR/rsr" -cluster "http://$COORD" -scale 0.02 -workloads twolf frontier \
    >"$WORKDIR/cluster.txt" 2>"$WORKDIR/rsr.log" &
RSR_PID=$!

# Kill -9 the coordinator the moment its journal shows a lease: real work is
# in flight on the workers, the worst moment to die.
i=0
until grep -q '"kind":"lease"' "$JOURNAL/journal.jsonl" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 150 ]; then
        echo "recovery-smoke: no lease was ever journaled" >&2
        cat "$WORKDIR/rsrc.log" >&2
        exit 1
    fi
    sleep 0.1
done
kill -9 "$RSRC_PID"
echo "recovery-smoke: coordinator SIGKILLed mid-sweep"

# Stay down past the workers' heartbeat-failure threshold (3 beats at 1s):
# both must flip to their reconnect machine, not ride out a blip.
sleep 4

start_rsrc -journal "$JOURNAL"
wait_ready "$COORD" rsrc
echo "recovery-smoke: coordinator restarted on the same journal"

if ! wait "$RSR_PID"; then
    echo "recovery-smoke: sweep did not survive the coordinator restart" >&2
    cat "$WORKDIR/rsr.log" "$WORKDIR/rsrc.log" \
        "$WORKDIR/worker-a.log" "$WORKDIR/worker-b.log" >&2
    exit 1
fi

# Crash recovery must not change a single byte of the results (the time
# columns, which differ between any two runs, masked).
"$WORKDIR/rsr" -stats -scale 0.02 -workloads twolf frontier \
    >"$WORKDIR/local.txt" 2>"$WORKDIR/local.stats"
if ! same_tables "$WORKDIR/local.txt" "$WORKDIR/cluster.txt"; then
    echo "recovery-smoke: post-restart sweep differs from single-node run" >&2
    exit 1
fi

# Nor run anything twice: the leases in flight at the kill stayed with their
# workers, so between them the workers executed each of the sweep's distinct
# jobs — as many as the local engine executed — exactly once.
JOBS="$(sed -n 's/.* done=\([0-9][0-9]*\) .*/\1/p' "$WORKDIR/local.stats")"
EXECUTED=0
for W in "$WORKER_A" "$WORKER_B"; do
    DONE="$(curl -fsS "http://$W/v1/stats" | sed -n 's/.*"Done": *\([0-9][0-9]*\).*/\1/p' | head -n 1)"
    EXECUTED=$((EXECUTED + ${DONE:-0}))
done
if [ "${JOBS:-0}" -lt 1 ] || [ "$EXECUTED" -ne "$JOBS" ]; then
    echo "recovery-smoke: workers executed $EXECUTED jobs; want each of the sweep's ${JOBS:-?} jobs exactly once" >&2
    cat "$WORKDIR/rsrc.log" "$WORKDIR/worker-a.log" "$WORKDIR/worker-b.log" >&2
    exit 1
fi

# The restarted coordinator really was rebuilt from the journal.
METRICS="$WORKDIR/metrics.txt"
curl -fsS "http://$COORD/metrics" >"$METRICS"
for PATTERN in \
    'rsr_cluster_replay_items_total' \
    'rsr_cluster_journal_records_total' \
    'rsr_cluster_journal_fsync_seconds'
do
    if ! grep -Fq "$PATTERN" "$METRICS"; then
        echo "recovery-smoke: coordinator /metrics is missing: $PATTERN" >&2
        cat "$METRICS" >&2
        exit 1
    fi
done

# Both workers rode out the outage through the reconnect machine. A worker's
# completion reports retry on their own clock, so the sweep can finish while
# its heartbeat still waits out a reconnect backoff (at most 5s a probe):
# give each worker that long and a probe more.
for W in "$WORKER_A" "$WORKER_B"; do
    i=0
    until RECONNECTS=$(curl -fsS "http://$W/metrics" |
        awk '$1 == "rsr_peer_reconnects_total" {print $2}') &&
        [ "${RECONNECTS:-0}" -ge 1 ]; do
        i=$((i + 1))
        if [ "$i" -gt 60 ]; then
            echo "recovery-smoke: worker $W never reconnected (rsr_peer_reconnects_total=${RECONNECTS:-absent})" >&2
            exit 1
        fi
        sleep 0.2
    done
done

echo "recovery-smoke: ok (sweep survived SIGKILL + journal replay, byte-identical to single node, $JOBS jobs run once each)"
