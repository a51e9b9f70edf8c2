#!/usr/bin/env bash
# Index files of the retired formats v1-v4 must fail at the CLI with the
# typed "unsupported version" exit code (4) and nothing on stdout, both
# in `kmm verify` and in a --mmap search.
# Usage: old_formats.sh KMM_EXE FIXTURE.fmi...
set -uo pipefail
kmm=$1
shift
if [ "$#" -eq 0 ]; then
  echo "old_formats: no fixture files given" >&2
  exit 1
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

expect_unsupported() {
  local what=$1
  shift
  "$kmm" "$@" >"$tmp/out" 2>"$tmp/err"
  local code=$?
  if [ "$code" -ne 4 ]; then
    echo "old_formats: $what exited $code, expected 4" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
  if [ -s "$tmp/out" ]; then
    echo "old_formats: $what wrote to stdout:" >&2
    cat "$tmp/out" >&2
    exit 1
  fi
  if ! grep -q "unsupported index format version" "$tmp/err"; then
    echo "old_formats: $what gave no version error on stderr:" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
}

for f in "$@"; do
  expect_unsupported "kmm verify $f" verify "$f"
  expect_unsupported "kmm search --mmap -i $f" search --mmap -i "$f" acg
done
