#!/usr/bin/env sh
# Sampling-regimen smoke test, run by `make regimen-smoke` and CI.
#
# Builds a race-enabled rsr and proves three things end to end with the real
# CLI:
#
#   1. Byte-identity: stratified-uniform is the paper's design, so
#      `rsr -regimen stratified-uniform run` is the engine's unnamed job under
#      its other name, and its output must be byte-for-byte identical to plain
#      `rsr run` once the wall-clock `time` line is filtered out. Every other
#      line — estimate, rel error, confidence, work counters — is
#      deterministic, so `diff` is the oracle.
#
#   2. Every strategy runs end to end: each name printed by
#      `rsr regimens` must complete a run and report a sane estimate line
#      and a non-zero `work` line — simpoint included, which reported none
#      while it estimated on a path of its own.
#
#   3. A strategy run is an engine job: `rsr -cachedir D -stats strategies`
#      run twice prints the same table (minus the time column) and the second
#      run's engine reports misses=0 — every strategy result came off disk.
#
# All flags are global and precede the subcommand (a flag after `run` is a
# positional argument and silently ignored) — same convention as the other
# smoke scripts.
set -eu

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

GO="${GO:-go}"

"$GO" build -race -o "$WORKDIR/rsr" ./cmd/rsr

RSR="$WORKDIR/rsr -scale 0.05 -workloads twolf -workload twolf -parallel 1"

# --- 1. The unnamed job vs the named strategy, byte for byte. ---------------
$RSR run | grep -v '^time' >"$WORKDIR/unnamed.txt"
$RSR -regimen stratified-uniform run | grep -v '^time' >"$WORKDIR/named.txt"
if ! diff -u "$WORKDIR/unnamed.txt" "$WORKDIR/named.txt"; then
    echo "regimen-smoke: stratified-uniform diverged from the unnamed run" >&2
    exit 1
fi

# --- 2. Every strategy completes a run. -------------------------------------
NAMES="$($RSR regimens | awk 'NR > 1 { print $1 }')"
if [ "$(printf '%s\n' "$NAMES" | wc -l)" -lt 4 ]; then
    echo "regimen-smoke: expected at least 4 strategy names, got:" >&2
    printf '%s\n' "$NAMES" >&2
    exit 1
fi
for NAME in $NAMES; do
    $RSR -regimen "$NAME" run | grep -v '^time' >"$WORKDIR/$NAME.txt"
    if ! grep -q '^estimate' "$WORKDIR/$NAME.txt"; then
        echo "regimen-smoke: strategy $NAME produced no estimate:" >&2
        cat "$WORKDIR/$NAME.txt" >&2
        exit 1
    fi
    # The default method is R$BP (20%), so a pass through the region walker
    # logs and reconstructs: an all-zero work line means the strategy's
    # outcome did not come from it (as SimPoint's did not, while it kept a
    # private estimate path).
    if ! grep '^work' "$WORKDIR/$NAME.txt" | grep -q '[1-9]'; then
        echo "regimen-smoke: strategy $NAME reported no warm-up work:" >&2
        cat "$WORKDIR/$NAME.txt" >&2
        exit 1
    fi
done

# --- 3. The head-to-head twice on one cache directory. ----------------------
# The table's last column is wall time, which a cached result carries over
# from the run that computed it: the two tables are equal byte for byte.
$RSR -cachedir "$WORKDIR/cache" -stats strategies >"$WORKDIR/cold.txt" 2>"$WORKDIR/cold.err"
$RSR -cachedir "$WORKDIR/cache" -stats strategies >"$WORKDIR/warm.txt" 2>"$WORKDIR/warm.err"
if ! diff -u "$WORKDIR/cold.txt" "$WORKDIR/warm.txt"; then
    echo "regimen-smoke: strategies re-run on the same -cachedir printed a different table" >&2
    exit 1
fi
if ! grep -q ' misses=0 ' "$WORKDIR/warm.err" || grep -q ' misses=0 ' "$WORKDIR/cold.err"; then
    echo "regimen-smoke: want a cold run with misses and a cached re-run with misses=0, got:" >&2
    cat "$WORKDIR/cold.err" "$WORKDIR/warm.err" >&2
    exit 1
fi

echo "regimen-smoke: ok (stratified-uniform byte-identical to the unnamed run; $(printf '%s\n' "$NAMES" | wc -l | tr -d ' ') strategies ran end to end; strategies re-run served from the cache)"
