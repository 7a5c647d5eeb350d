#!/usr/bin/env bash
# Results check, run by `make results-check`.
#
# Regenerates the four committed full-scale outputs (results_reference.txt,
# results_fig7_sequential.txt, results_strategies.txt, results_frontier.txt)
# exactly as `make results` does, into a temporary directory, and diffs each
# against the checked-out file with every Go duration token masked: `812µs`,
# `224.5ms`, `1.23s`, `1m2.5s` — together with the padding in front of it,
# since a right-aligned column pads a shorter duration with more spaces. Those
# are the wall-clock columns; everything else in the four files is
# deterministic, so any other difference — a number, a label, a line — fails
# the check. This is the byte-identity test for a change that claims the same
# results. About 10 minutes on a two-core host.
#
# `results-check.sh mask FILE` prints FILE with the same masking, for the
# fabric smokes, which diff timed tables between a fabric and a local run.
set -euo pipefail

mask() { sed -E 's/ *([0-9]+(\.[0-9]+)?(ns|µs|us|ms|s|m|h))+\b/ <dur>/g' "$1"; }
if [ "${1:-}" = mask ]; then
	mask "$2"
	exit
fi

cd "$(dirname "$0")/.."
files="results_reference.txt results_fig7_sequential.txt results_strategies.txt results_frontier.txt"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rsr" ./cmd/rsr
"$tmp/rsr" all >"$tmp/results_reference.txt"
"$tmp/rsr" -parallel 1 fig7 >"$tmp/results_fig7_sequential.txt"
"$tmp/rsr" strategies >"$tmp/results_strategies.txt"
"$tmp/rsr" frontier >"$tmp/results_frontier.txt"

status=0
for f in $files; do
	if diff -u --label "$f" --label "$tmp/$f" <(mask "$f") <(mask "$tmp/$f"); then
		echo "results-check: $f: only duration tokens differ"
	else
		echo "results-check: $f: differs beyond duration tokens" >&2
		status=1
	fi
done
exit $status
