#!/bin/sh
# Prints the sha256 of every paper scenario's JSONL and Chrome trace, one
# "DIGEST  SCENARIO.FORMAT" line each, for test/golden/trace_digests.txt.
# The exports are too large to commit; their digests pin them byte for
# byte.  Extra arguments go to every `raid trace` call (e.g. -j 4).
# Usage: sh trace_digests.sh path/to/raid.exe [ARGS...]
set -eu
raid=$1
shift
for scenario in exp1 exp2 exp3-1 exp3-2; do
  for format in jsonl chrome; do
    digest=$("$raid" trace "$scenario" --format="$format" "$@" | sha256sum | cut -d' ' -f1)
    printf '%s  %s.%s\n' "$digest" "$scenario" "$format"
  done
done
