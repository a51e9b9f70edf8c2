#!/usr/bin/env bash
# A flipped payload byte in a saved index must fail every full load at
# the CLI with the typed "corrupt" exit code (6) and nothing on stdout:
# `kmm verify` and a search that loads by copy (no --mmap).  The intact
# file must verify with exit code 0.
# Usage: corrupt_payload.sh KMM_EXE
set -uo pipefail
kmm=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

die() {
  echo "corrupt_payload: $*" >&2
  exit 1
}

quietly() {
  "$@" >"$tmp/log" 2>&1 || { cat "$tmp/log" >&2; die "$* failed"; }
}

quietly "$kmm" generate --size 2000 --seed 7 -o "$tmp/g.fa"
quietly "$kmm" index --genome "$tmp/g.fa" --output "$tmp/g.fmi"
"$kmm" verify -q "$tmp/g.fmi" || die "intact index: verify exited $?, expected 0"

# The packed text, the first section, starts within 8 bytes after the
# three header lines; flip a byte well inside it.
off=$(( $(head -n 3 "$tmp/g.fmi" | wc -c) + 64 ))
cp "$tmp/g.fmi" "$tmp/bad.fmi"
byte=$(od -An -tu1 -j "$off" -N1 "$tmp/bad.fmi" | tr -d ' ')
printf "\\$(printf '%03o' $(( byte ^ 0xff )))" |
  dd of="$tmp/bad.fmi" bs=1 seek="$off" conv=notrunc status=none
cmp -s "$tmp/g.fmi" "$tmp/bad.fmi" && die "the byte at $off did not change"

expect_corrupt() {
  local what=$1
  shift
  "$kmm" "$@" >"$tmp/out" 2>"$tmp/err"
  local code=$?
  if [ "$code" -ne 6 ]; then
    cat "$tmp/err" >&2
    die "$what exited $code, expected 6"
  fi
  if [ -s "$tmp/out" ]; then
    cat "$tmp/out" >&2
    die "$what wrote to stdout"
  fi
}

expect_corrupt "kmm verify" verify "$tmp/bad.fmi"
expect_corrupt "kmm search" search -i "$tmp/bad.fmi" acgtacgt
"$kmm" verify -q "$tmp/g.fmi" || die "intact index after the flip: verify exited $?, expected 0"
