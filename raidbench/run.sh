#!/bin/sh
# Builds raidbench from the sources of the checkout this script sits in,
# then runs it with the given arguments, e.g.
#   sh raidbench/run.sh --workload steady-64 --seed 42 --seconds 10 --trace 0
# A failed build exits non-zero before anything is measured.
set -eu
cd "$(dirname "$0")/.."
if command -v dune >/dev/null 2>&1; then
  dune=dune
elif command -v opam >/dev/null 2>&1; then
  dune="opam exec -- dune"
else
  echo "raidbench: dune not found" >&2
  exit 127
fi
DUNE_CACHE=disabled $dune build --root . ./raidbench/raidbench.exe 1>&2
exec ./_build/default/raidbench/raidbench.exe "$@"
