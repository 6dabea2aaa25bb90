#!/usr/bin/env bash
# `volcast_trace diff` smoke through the shipped binaries: a telemetry log
# diffed against itself must list the stages plus a total row, and every
# delta column must read zero.
#
#   tools/smoke_trace_diff.sh /path/to/volcast_sim /path/to/volcast_trace
set -euo pipefail

SIM="${1:?usage: smoke_trace_diff.sh /path/to/volcast_sim /path/to/volcast_trace}"
TRACE="${2:?usage: smoke_trace_diff.sh /path/to/volcast_sim /path/to/volcast_trace}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$SIM" --users=2 --duration=1 --points=30000 --frames=20 --threads=1 \
  --policy tiling=shared --telemetry="$TMP/run.jsonl" > /dev/null
"$TRACE" diff "$TMP/run.jsonl" "$TMP/run.jsonl" | tee "$TMP/diff.txt"

# The table body: every line after the header rule.
body="$(sed '1,/^---/d' "$TMP/diff.txt")"
for row in tile total; do
  if ! grep -q "^$row " <<< "$body"; then
    echo "smoke_trace_diff: no '$row' row in the diff" >&2
    exit 1
  fi
done
# Columns: stage, then (a, b, delta) triples; the deltas are fields 4, 7, 10.
if ! awk '{ for (i = 4; i <= NF; i += 3) if ($i !~ /^\+0\.0+$/) bad = 1 }
          END { exit bad }' <<< "$body"; then
  echo "smoke_trace_diff: a log diffed against itself shows a non-zero delta" >&2
  exit 1
fi
echo "smoke_trace_diff: ok"
