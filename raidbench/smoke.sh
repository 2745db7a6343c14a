#!/bin/sh
# Tier-1 smoke test for the benchmark: the quick benchmark twice and
# traced once.  Each run exits non-zero when a check fails (the traced
# run also checks that its layer ledger covers the timed wall time), and
# the three runs must print the same fingerprints.
set -u
case $1 in */*) exe=$1 ;; *) exe=./$1 ;; esac
run() {
  out=$("$exe" --quick --seconds 0 "$@") || { printf '%s\n' "$out" >&2; exit 1; }
  printf '%s\n' "$out" | grep '^fingerprint'
}
first=$(run) || exit 1
second=$(run) || exit 1
traced=$(run --trace) || exit 1
if [ "$first" != "$second" ] || [ "$first" != "$traced" ]; then
  printf 'fingerprints differ:\n%s\n--\n%s\n--\n%s\n' "$first" "$second" "$traced"
  exit 1
fi
