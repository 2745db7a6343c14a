#!/bin/sh
# Prints the sha256 of every paper scenario's JSONL and Chrome trace, one
# "DIGEST  SCENARIO.FORMAT" line each, for test/golden/trace_digests.txt:
# first at each scenario's default seed, then at --seed 7 (lines named
# "SCENARIO.seed7.FORMAT").  The exports are too large to commit; their
# digests pin them byte for byte.  Extra arguments go to every `raid
# trace` call (e.g. -j 4).
# Usage: sh trace_digests.sh path/to/raid.exe [ARGS...]
set -eu
raid=$1
shift
for seed in default 7; do
  for scenario in exp1 exp2 exp3-1 exp3-2; do
    for format in jsonl chrome; do
      if [ "$seed" = default ]; then
        name=$scenario.$format
        digest=$("$raid" trace "$scenario" --format="$format" "$@" | sha256sum | cut -d' ' -f1)
      else
        name=$scenario.seed$seed.$format
        digest=$("$raid" trace "$scenario" --format="$format" --seed "$seed" "$@" \
          | sha256sum | cut -d' ' -f1)
      fi
      printf '%s  %s\n' "$digest" "$name"
    done
  done
done
