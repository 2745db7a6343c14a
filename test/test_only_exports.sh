#!/bin/sh
# Prints every library export that no program calls, and every optional
# argument of an export that no program sets, one "NAME  REASON" line
# each, for test/golden/test_only_exports.txt.
#
# An export is a "val" of a lib/*/*.mli, named by its qualified path:
# M.name, or M.N.name for a val of a nested module N.  It counts as
# called when a program .ml (lib/, bin/, bench/, raidbench/ or
# examples/; test code does not count) other than M's own .ml contains
# M.name (any qualified path ending in it, e.g. Raid_net.Engine.create),
# X.name where the file declares "module X = ...M", or the bare name in
# a file that opens or includes M ("open M", "include M", "let open M
# in", "M.( ... )").  Comments and string literals are not searched,
# and a path right after " : " or "of" is a type, not a call.
#
# An optional argument "?arg:" in the type of an export's val is listed
# as "M.name ?arg" when no program .ml other than M's own contains
# "~arg" or "?arg".  M's own labels never count: a "~arg" there may only
# forward the option to another of M's functions, which sets nothing
# for a caller.  The label is matched as a bare word, so an option is
# missed when another program sets a label of the same name, but one
# that a program sets is never listed.
#
# Each listed line takes its reason from the allow-list given as the
# second argument (the text after the first two spaces of the line
# whose name matches), or "UNDECLARED" when it has none, so a new
# test-only export or option (or one that gains a caller) shows up as a
# diff against the golden.
# Usage: sh test_only_exports.sh ROOT ALLOWLIST
set -eu
root=$1
case $2 in /*) allow=$2 ;; *) allow=$PWD/$2 ;; esac
export LC_ALL=C
cd "$root"

# The awk function that blanks comments, string and character literals,
# line by line; "depth" and "instr" carry its state across lines.
# Quoted strings ({|...|}) are not handled: no program file uses one.
strip='
function strip(line,   out, tok) {
  out = ""
  while (line != "") {
    if (instr) {
      if (match(line, /\\.|"/)) {
        tok = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        if (tok == "\"") instr = 0
      } else line = ""
    } else if (depth > 0) {
      if (match(line, /\(\*|\*\)|"/)) {
        tok = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        if (tok == "(*") depth++
        else if (tok == "*)") depth--
        else instr = 1
      } else line = ""
    } else if (match(line, /\(\*|"|\047/)) {
      out = out substr(line, 1, RSTART - 1)
      tok = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      if (tok == "(*") { depth = 1; out = out " " }
      else if (tok == "\"") { instr = 1; out = out " " }
      else if (tok == "\047") {
        if (match(line, /^\\.[^\047]*\047/)) { line = substr(line, RLENGTH + 1); out = out " " }
        else if (substr(line, 2, 1) == "\047") { line = substr(line, 3); out = out " " }
        else out = out tok
      }
    } else { out = out line; line = "" }
  }
  return out
}'

{
  # Per program .ml: "U FILE PATH" for each qualified value path, "O FILE
  # PATH" for each opened or included module path, "A FILE X PATH" for
  # each "module X = PATH", "L FILE ~arg" for each label, and, in files
  # that open something, "W FILE word" for each lowercase word.
  find lib bin bench raidbench examples -name '*.ml' | sort | xargs awk "$strip"'
    function flush(   w) {
      if (file != "" && opened) for (w in words) print "W", file, w
      split("", words); opened = 0; depth = 0; instr = 0; state = 0
    }
    FNR == 1 { flush(); file = FILENAME }
    {
      line = strip($0)
      prev = ""
      while (match(line, /[~?]?[A-Za-z_][A-Za-z0-9_\047]*(\.[A-Za-z_][A-Za-z0-9_\047]*)*/)) {
        tok = substr(line, RSTART, RLENGTH)
        # A path after " : " or "of" names a type, which may share the
        # name of a val: "(s : M.status)" does not call val M.status.
        typed = substr(line, 1, RSTART - 1) ~ /(^|[ \t]):[ \t]+$/ || prev == "of"
        prev = tok
        line = substr(line, RSTART + RLENGTH)
        if (tok ~ /^[~?]/) { if (!((file, tok) in labels)) { labels[file, tok]; print "L", file, tok }; state = 0; continue }
        n = split(tok, c, ".")
        # Leading lowercase components are values or fields: words.
        for (k = 1; k <= n && c[k] !~ /^[A-Z]/; k++) words[c[k]]
        path = ""
        for (; k <= n && c[k] ~ /^[A-Z]/; k++) path = path (path == "" ? "" : ".") c[k]
        if (k <= n) {
          if (!typed) print "U", file, path "." c[k]
          for (k++; k <= n; k++) words[c[k]]
        } else if (path != "") {
          if (state == 1) { print "O", file, path; opened = 1 }
          else if (state == 3) print "A", file, alias, path
          else if (substr(line, 1, 2) == ".(") { print "O", file, path; opened = 1 }
        }
        if (tok == "open" || tok == "include") state = 1
        else if (tok == "module") state = 2
        else if (state == 2 && tok ~ /^[A-Z][A-Za-z0-9_]*$/ && line ~ /^[ \t]*=/) { alias = tok; state = 3 }
        else state = 0
      }
    }
    END { flush() }'
  echo --
  # Per .mli: "E MLI PATH" for each val, "P MLI PATH ?arg" for each
  # optional argument in its type.
  for mli in lib/*/*.mli; do
    awk -v mli="$mli" "$strip"'
      function close_val(   t) {
        if (val == "") return
        print "E", mli, val
        t = type
        while (match(t, /\?[a-z_][A-Za-z0-9_\047]*[ \t]*:/)) {
          opt = substr(t, RSTART, RLENGTH)
          t = substr(t, RSTART + RLENGTH)
          sub(/[ \t]*:$/, "", opt)
          print "P", mli, val, opt
        }
        val = ""
      }
      BEGIN {
        m = mli
        sub(/.*\//, "", m)
        sub(/\.mli$/, "", m)
        nest[0] = toupper(substr(m, 1, 1)) substr(m, 2)
        top = 0
      }
      {
        line = strip($0)
        if (line ~ /^[ \t]*(val|type|module|end|exception|external|include|open|class)([^A-Za-z0-9_\047]|$)/) close_val()
        if (match(line, /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_\047]*[ \t]*:[ \t]*sig/)) {
          name = line
          sub(/^[ \t]*module[ \t]+/, "", name)
          sub(/[^A-Za-z0-9_\047].*/, "", name)
          top++
          nest[top] = nest[top - 1] "." name
        } else if (line ~ /^[ \t]*end([^A-Za-z0-9_\047]|$)/) {
          if (top > 0) top--
        } else if (match(line, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_\047]*/)) {
          name = substr(line, RSTART, RLENGTH)
          sub(/^[ \t]*val[ \t]+/, "", name)
          val = nest[top] "." name
          type = substr(line, RSTART + RLENGTH)
        } else if (val != "") type = type " " line
      }
      END { close_val() }' "$mli"
  done
} | awk '
  # Every qualified suffix of PATH (at least Module.name) is a name the
  # file can be calling.
  function candidate(f, path,   n, c, k, j, s) {
    n = split(path, c, ".")
    for (k = 1; k < n; k++) {
      s = c[k]
      for (j = k + 1; j <= n; j++) s = s "." c[j]
      if (!((s, f) in seen)) { seen[s, f]; users[s] = users[s] " " f }
    }
  }
  function expand(f, path,   head) {
    head = path
    sub(/\..*/, "", head)
    if ((f, head) in alias) return alias[f, head] substr(path, length(head) + 1)
    return path
  }
  function called(path, own,   n, u, i) {
    n = split(users[path], u, " ")
    for (i = 1; i <= n; i++) if (u[i] != own) return 1
    return 0
  }
  function set_by(label, own,   n, u, i) {
    n = split(labels[label], u, " ")
    for (i = 1; i <= n; i++) if (u[i] != own) return 1
    return 0
  }
  $1 == "U" { uses[$2, ++nuse[$2]] = $3; files[$2]; next }
  $1 == "O" { opens[$2, ++nopen[$2]] = $3; files[$2]; next }
  $1 == "A" { alias[$2, $3] = $4; next }
  $1 == "W" { words[$2, ++nword[$2]] = $3; next }
  $1 == "L" { labels[$3] = labels[$3] " " $2; next }
  $1 == "--" {
    for (f in files) {
      for (i = 1; i <= nopen[f]; i++) opens[f, i] = expand(f, opens[f, i])
      for (i = 1; i <= nuse[f]; i++) {
        p = expand(f, uses[f, i])
        candidate(f, p)
        for (j = 1; j <= nopen[f]; j++) candidate(f, opens[f, j] "." p)
      }
      for (i = 1; i <= nword[f]; i++)
        for (j = 1; j <= nopen[f]; j++) candidate(f, opens[f, j] "." words[f, i])
    }
    next
  }
  {
    own = $2
    sub(/i$/, "", own)
  }
  $1 == "E" && !called($3, own) { print $3 }
  $1 == "P" {
    label = substr($4, 2)
    if (!set_by("~" label, own) && !set_by("?" label, own)) print $3 " " $4
  }' | sort -u | awk -v allow="$allow" '
  BEGIN {
    while ((getline line < allow) > 0) {
      p = index(line, "  ")
      if (p) reasons[substr(line, 1, p - 1)] = substr(line, p + 2)
    }
  }
  { print $0 "  " ($0 in reasons ? reasons[$0] : "UNDECLARED") }'
