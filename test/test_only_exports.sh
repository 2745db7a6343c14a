#!/bin/sh
# Prints every library export that no program calls, one "MODULE.NAME
# REASON" line each, for test/golden/test_only_exports.txt.  An export is
# a "val NAME" line of a lib/*/*.mli; it is listed when NAME does not
# occur as a whole word in any .ml of lib/, bin/, bench/, raidbench/ or
# examples/ other than the module's own .ml (test code does not count).
# Each listed export takes its reason from the allow-list given as the
# second argument, or "UNDECLARED" when it has none, so a new test-only
# export (or one that gains a caller) shows up as a diff against the
# golden.
#
# The match is on the bare word, not the qualified name: any identifier,
# record field or local of the same name counts as a caller.  So the
# rule overcounts callers: it can miss a dead export (Faillock.merge,
# whose name other modules use), but it never lists a used one.  A val
# inside a nested module is listed under the file's module.
# Usage: sh test_only_exports.sh ROOT ALLOWLIST
set -eu
root=$1
case $2 in /*) allow=$2 ;; *) allow=$PWD/$2 ;; esac
export LC_ALL=C
cd "$root"
{
  # "FILE WORD" for every distinct word of every program .ml ...
  for f in $(find lib bin bench raidbench examples -name '*.ml' | sort); do
    tr -cs 'A-Za-z0-9_' '\n' < "$f" | sort -u | sed "s|^|$f |"
  done
  echo --
  # ... then "MLI NAME" for every val the library exports.
  for mli in lib/*/*.mli; do
    sed -n "s/^ *val  *\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u | sed "s|^|$mli |"
  done
} | awk '
  $1 == "--" { exports = 1; next }
  !exports { users[$2] = users[$2] " " $1; next }
  {
    own = $1
    sub(/i$/, "", own)
    n = split(users[$2], files, " ")
    used = 0
    for (i = 1; i <= n; i++) if (files[i] != own) used = 1
    if (!used) {
      m = $1
      sub(/.*\//, "", m)
      sub(/\.mli$/, "", m)
      print toupper(substr(m, 1, 1)) substr(m, 2) "." $2
    }
  }' | sort | awk -v allow="$allow" '
  BEGIN {
    while ((getline line < allow) > 0) {
      key = line
      sub(/ .*/, "", key)
      reason = line
      sub(/^[^ ]* */, "", reason)
      reasons[key] = reason
    }
  }
  { print $1 "  " (reasons[$1] != "" ? reasons[$1] : "UNDECLARED") }'
