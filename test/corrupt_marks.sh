#!/usr/bin/env bash
# An index adopted by --mmap whose SA marks are corrupt but count right
# (corrupt_marks.exe writes one) must fail a query whose locate walk
# overruns with the typed "corrupt" exit code (6) and nothing on
# stdout, for the bidir and the m-tree engine alike; `kmm map` must
# skip the read as corrupt ("sa marks") and go on.
# An index adopted by --mmap with a superblock rank counter raised
# (corrupt_marks.exe --super) sends an engine out of range: the search
# exits 8 (internal) with a hint to run `kmm verify`, not cmdliner's
# 125, for both engines; `kmm map` skips the m-tree read as internal
# and exits 8 when bidir's prefix table cannot be built.
# An index adopted by --mmap with the forward side's superblock counter
# raised (corrupt_marks.exe --forward) sends delta's scan out of range:
# the m-tree and s-tree searches exit 8 with the same hint, and `kmm
# map` skips the m-tree read as internal, where an unchecked scan
# would answer nothing.
# No engine the daemon serves may end by a signal or cmdliner's 125 on
# any of these files.
# Usage: corrupt_marks.sh CORRUPT_MARKS_EXE KMM_EXE
set -uo pipefail
helper=$1
kmm=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

die() {
  echo "corrupt_marks: $*" >&2
  exit 1
}

# Every servable engine on one corrupt file: a typed exit or an answer,
# never 125 (an uncaught exception) nor >= 128 (a signal).
no_signal() {
  for engine in bidir m-tree s-tree s-tree-nodelta; do
    "$kmm" search --mmap -i "$1" --engine "$engine" -k 1 "$2" >/dev/null 2>"$tmp/err"
    code=$?
    if [ "$code" -eq 125 ] || [ "$code" -ge 128 ]; then
      cat "$tmp/err" >&2
      die "$engine search on $(basename "$1") exited $code"
    fi
  done
}

pat=$("$helper" "$tmp/bad.fmi") || die "corrupt_marks.exe failed"
no_signal "$tmp/bad.fmi" "$pat"

for engine in bidir m-tree; do
  "$kmm" search --mmap -i "$tmp/bad.fmi" --engine "$engine" -k 1 "$pat" >"$tmp/out" 2>"$tmp/err"
  code=$?
  [ "$code" -eq 6 ] || { cat "$tmp/err" >&2; die "$engine search exited $code, expected 6"; }
  [ -s "$tmp/out" ] && { cat "$tmp/out" >&2; die "$engine search wrote to stdout"; }
  grep -q "sa marks" "$tmp/err" || { cat "$tmp/err" >&2; die "$engine search: no sa marks error"; }
done

printf '>r0\n%s\n' "$pat" >"$tmp/reads.fa"
"$kmm" map --mmap -i "$tmp/bad.fmi" --reads "$tmp/reads.fa" -k 1 --jobs 1 >"$tmp/out" 2>"$tmp/err" ||
  { cat "$tmp/err" >&2; die "kmm map exited $?, expected 0"; }
grep -q "^skipped read 0: corrupt index sa marks" "$tmp/err" ||
  { cat "$tmp/err" >&2; die "kmm map did not skip the read as corrupt"; }

pat=$("$helper" --super "$tmp/super.fmi") || die "corrupt_marks.exe --super failed"
no_signal "$tmp/super.fmi" "$pat"
for engine in bidir m-tree; do
  "$kmm" search --mmap -i "$tmp/super.fmi" --engine "$engine" -k 1 "$pat" >"$tmp/out" 2>"$tmp/err"
  code=$?
  [ "$code" -eq 8 ] || { cat "$tmp/err" >&2; die "$engine search on a raised superblock exited $code, expected 8"; }
  [ -s "$tmp/out" ] && { cat "$tmp/out" >&2; die "$engine search wrote to stdout"; }
  grep -q "internal error: .*kmm verify" "$tmp/err" || { cat "$tmp/err" >&2; die "$engine search: no internal error naming kmm verify"; }
done

printf '>r0\n%s\n' "$pat" >"$tmp/reads.fa"
"$kmm" map --mmap -i "$tmp/super.fmi" --reads "$tmp/reads.fa" --engine m-tree -k 1 --jobs 1 \
  >"$tmp/out" 2>"$tmp/err" || { cat "$tmp/err" >&2; die "m-tree kmm map exited $?, expected 0"; }
grep -q "^skipped read 0: internal error" "$tmp/err" ||
  { cat "$tmp/err" >&2; die "kmm map did not skip the m-tree read as internal"; }
"$kmm" map --mmap -i "$tmp/super.fmi" --reads "$tmp/reads.fa" --engine bidir -k 1 --jobs 1 \
  >"$tmp/out" 2>"$tmp/err"
code=$?
[ "$code" -eq 8 ] || { cat "$tmp/err" >&2; die "bidir kmm map exited $code, expected 8"; }

pat=$("$helper" --forward "$tmp/fwd.fmi") || die "corrupt_marks.exe --forward failed"
no_signal "$tmp/fwd.fmi" "$pat"
for k in 0 1 2; do
  for engine in m-tree s-tree; do
    "$kmm" search --mmap -i "$tmp/fwd.fmi" --engine "$engine" -k "$k" "$pat" >"$tmp/out" 2>"$tmp/err"
    code=$?
    [ "$code" -eq 8 ] ||
      { cat "$tmp/err" >&2; die "$engine search (k=$k) on a raised forward superblock exited $code, expected 8"; }
    [ -s "$tmp/out" ] && { cat "$tmp/out" >&2; die "$engine search wrote to stdout"; }
    grep -q "internal error: .*kmm verify" "$tmp/err" ||
      { cat "$tmp/err" >&2; die "$engine search: no internal error naming kmm verify"; }
  done
done

printf '>r0\n%s\n' "$pat" >"$tmp/reads.fa"
"$kmm" map --mmap -i "$tmp/fwd.fmi" --reads "$tmp/reads.fa" --engine m-tree -k 1 --jobs 1 \
  >"$tmp/out" 2>"$tmp/err" || { cat "$tmp/err" >&2; die "m-tree kmm map exited $?, expected 0"; }
grep -q "^skipped read 0: internal error" "$tmp/err" ||
  { cat "$tmp/err" >&2; die "kmm map did not skip the m-tree read on the forward side as internal"; }
exit 0
