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

pat=$("$helper" "$tmp/bad.fmi") || die "corrupt_marks.exe failed"

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
exit 0
