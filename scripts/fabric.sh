# Local sweep fabric for the smoke scripts that need one (cluster-, trace- and
# recovery-smoke). Source it from the repository root after setting:
#
#   SMOKE               the script's name, the prefix of its failure messages
#   COORD               the coordinator's host:port
#   WORKER_A, WORKER_B  the two peer workers' host:port
#
# Each script has ports of its own, so they can run side by side (make -j).
# Sourcing makes WORKDIR (removed on exit, every process started here killed)
# and builds rsrc, rsrd and rsr into it. `fabric_up [rsrc flags]` then starts
# the coordinator on WORKDIR/cas with the extra flags, waits until it is
# ready, starts two peer-mode rsrd workers, worker-a and worker-b, and waits
# for both. start_rsrc restarts the coordinator alone. `same_tables A B` diffs
# two rsr outputs with their durations masked.

WORKDIR="$(mktemp -d)"
RSRC_PID=""
RSRD_A_PID=""
RSRD_B_PID=""
trap 'kill $RSRC_PID $RSRD_A_PID $RSRD_B_PID 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

GO="${GO:-go}"
"$GO" build -o "$WORKDIR/rsrc" ./cmd/rsrc
"$GO" build -o "$WORKDIR/rsrd" ./cmd/rsrd
"$GO" build -o "$WORKDIR/rsr" ./cmd/rsr

# start_rsrc [flags]: start the coordinator in the background, its log
# appended to WORKDIR/rsrc.log.
start_rsrc() {
    "$WORKDIR/rsrc" -addr "$COORD" -casdir "$WORKDIR/cas" "$@" \
        >>"$WORKDIR/rsrc.log" 2>&1 &
    RSRC_PID=$!
}

# wait_ready ADDR NAME: poll ADDR's /readyz for up to 10 s, then fail with
# NAME's log.
wait_ready() {
    i=0
    until curl -fsS "http://$1/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "$SMOKE: $2 did not become ready" >&2
            cat "$WORKDIR/$2.log" >&2
            exit 1
        fi
        sleep 0.2
    done
}

# start_worker NAME ADDR: start a peer-mode rsrd in the background.
start_worker() {
    "$WORKDIR/rsrd" -addr "$2" -parallel 2 -peer \
        -coordinator "http://$COORD" -node "$1" \
        >"$WORKDIR/$1.log" 2>&1 &
}

fabric_up() {
    start_rsrc "$@"
    wait_ready "$COORD" rsrc
    start_worker worker-a "$WORKER_A"
    RSRD_A_PID=$!
    start_worker worker-b "$WORKER_B"
    RSRD_B_PID=$!
    wait_ready "$WORKER_A" worker-a
    wait_ready "$WORKER_B" worker-b
}

# same_tables A B: diff two rsr outputs with every duration token masked
# (results-check.sh's mask): their time columns differ between any two runs,
# and every other byte, each deterministic value, must not.
same_tables() {
    scripts/results-check.sh mask "$1" >"$1.masked"
    scripts/results-check.sh mask "$2" >"$2.masked"
    diff -u "$1.masked" "$2.masked"
}
