#!/bin/sh
# Bad user input is reported by the verb, not as an uncaught exception:
# each command below must exit 2 with a "raid VERB: " message on stderr.
# Usage: sh cli_errors.sh path/to/raid.exe
set -u
raid=$1
err=$(mktemp)
trap 'rm -f "$err"' EXIT
status=0
check() {
  verb=$1
  "$raid" "$@" < /dev/null > /dev/null 2> "$err"
  code=$?
  if [ "$code" -ne 2 ] || ! grep -q "^raid $verb: " "$err"; then
    echo "raid $*: exit $code, stderr:" >&2
    cat "$err" >&2
    status=1
  fi
}
check scenario --sites 2 --fail-site 5
check throughput --sites 0 --smoke
check crashmatrix --seeds 1 --sizes 1
check crashmatrix --points no-such-point
check scenario --two-step 2.0
check concurrency --levels 0
check repl --sites 0
check throughput --replication-factor 3 --sharding diagonal --smoke
check multi --tenants 0
check trace no-such-scenario
check metrics --sample 0
exit $status
