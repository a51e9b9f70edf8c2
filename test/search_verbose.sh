#!/usr/bin/env bash
# `kmm search -v` prints the query's time and the engine's six counters
# on stderr and leaves stdout alone: for m-tree, bidir and cole it must
# exit 0, print the same hits as the run without -v, and report search=
# (read from the sink's query_ns), nodes= (above zero), leaves=,
# rank_calls=, derivations=, derived_leaves= and resumes=.  A batch's
# phase times live only in the sink: `kmm map --metrics-out` over one
# read must export one map.{prepare,search,merge}_ns each and its
# queries' query_ns.
# Usage: search_verbose.sh KMM_EXE
set -uo pipefail
kmm=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

die() {
  echo "search_verbose: $*" >&2
  exit 1
}

quietly() {
  "$@" >"$tmp/log" 2>&1 || { cat "$tmp/log" >&2; die "$* failed"; }
}

quietly "$kmm" generate --size 20000 --seed 7 -o "$tmp/g.fa"
quietly "$kmm" index --genome "$tmp/g.fa" --output "$tmp/g.fmi"
# 30 bases from the second FASTA line (60 per line), within k = 2.
pattern=$(sed -n 2p "$tmp/g.fa" | cut -c5-34)

for engine in m-tree bidir cole; do
  args=(search -i "$tmp/g.fmi" --engine "$engine" -k 2 "$pattern")
  "$kmm" "${args[@]}" >"$tmp/plain" 2>/dev/null || die "$engine: search exited $?"
  "$kmm" "${args[@]}" -v >"$tmp/out" 2>"$tmp/err"
  code=$?
  [ "$code" -eq 0 ] || { cat "$tmp/err" >&2; die "$engine: search -v exited $code"; }
  [ -s "$tmp/plain" ] || die "$engine: the planted window was not found"
  cmp -s "$tmp/plain" "$tmp/out" || die "$engine: -v changed stdout"
  line=$(cat "$tmp/err")
  [[ " $line" =~ \ search=[0-9.]+s ]] || die "$engine: no search= in: $line"
  for field in nodes leaves rank_calls derivations derived_leaves resumes; do
    [[ " $line" =~ \ $field=[0-9]+ ]] || die "$engine: no $field= in: $line"
  done
  [[ " $line" =~ \ nodes=([0-9]+) ]] && [ "${BASH_REMATCH[1]}" -gt 0 ] ||
    die "$engine: nodes is not above zero in: $line"
done

printf '>r0\n%s\n' "$pattern" >"$tmp/r.fa"
quietly "$kmm" map -i "$tmp/g.fmi" -r "$tmp/r.fa" -k 2 --metrics-out "$tmp/m.prom"
for phase in prepare search merge; do
  grep -qx "kmm_map_${phase}_ns_count 1" "$tmp/m.prom" ||
    die "map: no kmm_map_${phase}_ns_count 1 in the metrics"
done
queries=$(sed -n 's/^kmm_query_ns_count //p' "$tmp/m.prom")
[ "${queries:-0}" -gt 0 ] || die "map: kmm_query_ns_count is not above zero"
