#!/usr/bin/env sh
# Sharded-run smoke test, run by `make shard-smoke` and CI.
#
# Builds a race-enabled rsr and runs the full warm-up sweep — every method
# in warmup.Matrix(), forward and reverse alike — at -shards 1 and at
# several shard counts, failing unless the outputs are byte-identical. The
# sweep's jobs share one placement, whose functional trace the engine records
# once and replays with one producer at any shard count; a strategy job is
# handed no trace, so one method per warm-up path is also run through the
# ranked-set strategy, where -shards k means a checkpoint pre-pass and k
# run-ahead producers, and diffed the same way. Neither output has a
# wall-clock line once `time` is dropped, so `diff` is the whole oracle.
# -parallel 1 serializes the engine so the only concurrency under test (and
# under the race detector) is the feed's own.
set -eu

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

GO="${GO:-go}"

"$GO" build -race -o "$WORKDIR/rsr" ./cmd/rsr

"$WORKDIR/rsr" -scale 0.02 -workload twolf -parallel 1 -shards 1 sweep \
    >"$WORKDIR/seq.txt"

# 2 and 4 split the cluster count evenly; 7 leaves a remainder, so the
# uneven last-shard path is covered too.
for SHARDS in 2 4 7; do
    "$WORKDIR/rsr" -scale 0.02 -workload twolf -parallel 1 -shards "$SHARDS" sweep \
        >"$WORKDIR/shard$SHARDS.txt"
    if ! diff -u "$WORKDIR/seq.txt" "$WORKDIR/shard$SHARDS.txt"; then
        echo "shard-smoke: -shards $SHARDS sweep differs from sequential" >&2
        exit 1
    fi
done

RUN="$WORKDIR/rsr -scale 0.02 -workload twolf -parallel 1 -regimen ranked-set"
for METHOD in 'None' 'FP (40%)' 'S$BP' 'SBP' 'R$ (20%)' 'RBP' 'R$BP (20%)' 'R$BP (100%)'; do
    $RUN -shards 1 -method "$METHOD" run | grep -v '^time' >"$WORKDIR/run1.txt"
    for SHARDS in 2 4 7; do
        $RUN -shards "$SHARDS" -method "$METHOD" run | grep -v '^time' >"$WORKDIR/run$SHARDS.txt"
        if ! diff -u "$WORKDIR/run1.txt" "$WORKDIR/run$SHARDS.txt"; then
            echo "shard-smoke: $METHOD through ranked-set at -shards $SHARDS differs from -shards 1" >&2
            exit 1
        fi
    done
done

echo "shard-smoke: ok (every method byte-identical at shards 2, 4, 7; eight through a strategy too)"
