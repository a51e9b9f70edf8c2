#!/usr/bin/env bash
# Every kmm help page must render without writing to stderr: cmdliner
# reports doc-markup mistakes (such as an unescaped '$') there on every
# invocation.  Usage: help_quiet.sh KMM_EXE
set -euo pipefail
kmm=$1

check() {
  local err
  err=$("$kmm" "$@" --help=plain 2>&1 >/dev/null)
  if [ -n "$err" ]; then
    echo "kmm${*:+ $*} --help wrote to stderr:" >&2
    echo "$err" >&2
    exit 1
  fi
}

check
# Subcommands are read from the COMMANDS section of the top-level page.
cmds=$("$kmm" --help=plain | sed -n '/^COMMANDS/,/^[A-Z]/s/^       \([a-z][a-z-]*\) .*/\1/p')
count=0
for c in $cmds; do
  check "$c"
  count=$((count + 1))
done
if [ "$count" -lt 10 ]; then
  echo "help_quiet: found only $count subcommands in kmm --help" >&2
  exit 1
fi
