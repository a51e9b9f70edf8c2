#!/usr/bin/env bash
# The online baselines answer as the default engine does: on a
# generated 200 kbp genome, `kmm map` with amir, naive and bidir prints
# the same mapping lines for 40 and 100 bp reads sampled from both
# strands and mapped on both, at k = 0..3.
# Usage: baselines_agree.sh KMM_EXE
set -uo pipefail
kmm=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

die() {
  echo "baselines_agree: $*" >&2
  exit 1
}

quietly() {
  "$@" >"$tmp/log" 2>&1 || { cat "$tmp/log" >&2; die "$* failed"; }
}

quietly "$kmm" generate --size 200000 --seed 11 -o "$tmp/g.fa"
quietly "$kmm" index --genome "$tmp/g.fa" --output "$tmp/g.fmi"

hits=0
for len in 40 100; do
  quietly "$kmm" simulate -g "$tmp/g.fa" -l "$len" -n 20 --both-strands \
    -e 0.02 --seed "$len" -o "$tmp/r$len.fa"
  for k in 0 1 2 3; do
    for engine in amir naive bidir; do
      "$kmm" map -i "$tmp/g.fmi" -r "$tmp/r$len.fa" -k "$k" -j 1 \
        --engine "$engine" >"$tmp/$engine.out" 2>"$tmp/log" ||
        { cat "$tmp/log" >&2; die "map --engine $engine (len $len, k $k) failed"; }
    done
    hits=$((hits + $(wc -l <"$tmp/bidir.out")))
    for engine in amir naive; do
      cmp -s "$tmp/$engine.out" "$tmp/bidir.out" ||
        die "len $len, k $k: $engine differs from bidir"
    done
  done
done
[ "$hits" -gt 40 ] || die "only $hits mapping lines over the grid"
