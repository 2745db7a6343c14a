#!/bin/sh
# Every named scenario must resolve in every verb that takes one: the
# two verbs with --list print the same names, and each name runs in
# trace, metrics, explain and incidents.
# Usage: sh scenario_verbs.sh path/to/raid.exe
set -eu
raid=$1
names=$("$raid" trace --list | cut -d' ' -f1)
if [ "$("$raid" metrics --list | cut -d' ' -f1)" != "$names" ]; then
  echo "raid metrics --list differs from raid trace --list" >&2
  exit 1
fi
for name in $names; do
  "$raid" trace "$name" > /dev/null
  for verb in metrics explain incidents; do
    "$raid" $verb --scenario "$name" > /dev/null
  done
done
