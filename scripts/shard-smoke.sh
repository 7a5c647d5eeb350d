#!/usr/bin/env sh
# Sharded-pipeline smoke test, run by `make shard-smoke` and CI.
#
# Builds a race-enabled rsr and runs the full warm-up sweep — every method
# in warmup.Matrix(), forward and reverse alike — once through the
# sequential pipeline and once per shard count through the sharded cluster
# pipeline, failing unless the outputs are byte-identical. The sweep table
# has no wall-clock columns, so `diff` is the whole oracle. -parallel 1
# serializes the engine so the only concurrency under test (and under the
# race detector) is the shard pipeline itself.
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

echo "shard-smoke: ok (every method byte-identical at shards 2, 4, 7)"
