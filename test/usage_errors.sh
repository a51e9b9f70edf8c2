#!/usr/bin/env bash
# Command-line usage errors exit with cmdliner's code 124, and an unknown
# engine is refused with the list of registered engines.
# Usage: usage_errors.sh KMM_EXE
set -uo pipefail
kmm=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

expect_usage_error() {
  "$kmm" "$@" >/dev/null 2>"$tmp/err"
  local code=$?
  if [ "$code" -ne 124 ]; then
    echo "usage_errors: kmm $* exited $code, expected 124" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
}

expect_usage_error search --engine bogus -k 1 acgt
expect_usage_error search -k notanint acgt
expect_usage_error nosuchcommand

# "hybrid" names no engine; the error lists the valid names, and
# hybrid is not among them.
expect_usage_error search --engine hybrid -k 1 acgt
valid=$(tr -s ' \n' ' ' <"$tmp/err" | sed -n 's/.*(valid: \([^)]*\)).*/\1/p')
if [ -z "$valid" ]; then
  echo "usage_errors: no engine list in the error:" >&2
  cat "$tmp/err" >&2
  exit 1
fi
if [ "$valid" != "m-tree, s-tree, s-tree-nodelta, cole, amir, naive, bidir" ]; then
  echo "usage_errors: the engine list is not the registry's: $valid" >&2
  exit 1
fi

# kangaroo was retired: it is refused like any unknown name, and the
# list it prints does not name it.
expect_usage_error search --engine kangaroo -k 1 acgt
case ", $(tr -s ' \n' ' ' <"$tmp/err" | sed -n 's/.*(valid: \([^)]*\)).*/\1/p')," in
  *", kangaroo,"*) echo "usage_errors: kangaroo still listed" >&2; exit 1 ;;
  ", ,") echo "usage_errors: no engine list in the kangaroo error" >&2; exit 1 ;;
esac

# Out-of-range generator and simulator settings are bad input (exit 2),
# refused by the library's own range checks, not an uncaught exception.
expect_bad_input() {
  "$kmm" "$@" >/dev/null 2>"$tmp/err"
  local code=$?
  if [ "$code" -ne 2 ] || grep -q uncaught "$tmp/err"; then
    echo "usage_errors: kmm $* exited $code, expected 2 without an uncaught exception" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
}
expect_bad_input generate --size 0
expect_bad_input generate --repeat-fraction 5
"$kmm" generate --size 1000 --seed 3 -o "$tmp/small.fa" || exit 1
expect_bad_input simulate --genome "$tmp/small.fa" --error-rate 2
expect_bad_input simulate --genome "$tmp/small.fa" --length 0
expect_bad_input simulate --genome "$tmp/small.fa" --length 2000

# The serve daemon batches nothing, so it has no --batch-max knob.
expect_usage_error serve --batch-max 8 --index nonexistent.idx

# Out-of-range counts are usage errors, not
# internal errors (125): the runtime runs at most 128 domains, and the
# daemon's event loop takes one of them.
expect_usage_error map --jobs 0 --genome g.fa --reads r.fa
expect_usage_error map --jobs 129 --genome g.fa --reads r.fa
expect_usage_error serve --jobs 128 --genome g.fa --socket "$tmp/kmm.sock"
if [ -e "$tmp/kmm.sock" ]; then
  echo "usage_errors: refused serve left its socket file behind" >&2
  exit 1
fi
expect_usage_error search -k 1 acgt

# Every numeric option is range-checked when it is parsed: a usage
# error that names the range, never Server.start's Invalid_argument
# (125), a send budget that overflows to 0 ns, or a value taken
# silently.
expect_range_error() {
  expect_usage_error "$@"
  if ! grep -q "is not an integer\|is not a number of seconds" "$tmp/err"; then
    echo "usage_errors: kmm $* does not name the range:" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
}
serve_args=(--genome g.fa --socket "$tmp/kmm.sock")
expect_range_error serve --max-queue 0 "${serve_args[@]}"
for t in 0 nan 1e10 inf -1 86401; do
  expect_range_error serve --send-timeout="$t" "${serve_args[@]}"
done
expect_range_error serve --max-pattern=-1 "${serve_args[@]}"
expect_range_error serve --max-pattern 0 "${serve_args[@]}"
expect_range_error serve --max-k=-3 "${serve_args[@]}"
expect_range_error serve --max-hits=-1 "${serve_args[@]}"
expect_range_error serve --max-frame=-5 "${serve_args[@]}"
if [ -e "$tmp/kmm.sock" ]; then
  echo "usage_errors: refused serve left its socket file behind" >&2
  exit 1
fi
expect_range_error bench --size=-5 load-modes
expect_range_error bench --size 50 load-modes
expect_range_error fuzz --iters=-1
expect_range_error fuzz --iters 0
expect_range_error fuzz --max-text 0
expect_range_error client --retries=-1 --ping
expect_range_error client --timeout 0 --ping
expect_range_error client --deadline nan -k 1 acgt

# The retired suites (the kernel suites, whose numbers are perfbench's
# fm.* and verify.* rows, and the micro suite) are unknown benchmarks;
# the error lists the registry, paper experiments first.
for retired in rank-locate verify micro; do
  expect_usage_error bench "$retired"
  if ! tr -s ' \n' ' ' <"$tmp/err" | grep -q '(available: table1, index-size, table2, fig11a, fig11b, fig12, fig13, ablation, deriv-stress, mtree-alloc, load-modes, engines, serve)'; then
    echo "usage_errors: kmm bench $retired does not list the registry:" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
done

# The serve bench is its overload round alone: no sweep flags.
expect_usage_error bench serve --connections 2

kmm_abs=$(realpath "$kmm")

# Every name is checked before any benchmark runs: an unknown name after
# a valid one prints no table and writes no record.
(cd "$tmp" && "$kmm_abs" bench table1 nosuch >"$tmp/out" 2>"$tmp/err")
code=$?
if [ "$code" -ne 124 ]; then
  echo "usage_errors: kmm bench table1 nosuch exited $code, expected 124" >&2
  exit 1
fi
if [ -s "$tmp/out" ] || ls "$tmp"/BENCH_*.json >/dev/null 2>&1; then
  echo "usage_errors: kmm bench table1 nosuch ran table1:" >&2
  cat "$tmp/out" >&2
  exit 1
fi

# --smoke is refused, with no record written, where a bench has no
# smoke mode.
(cd "$tmp" && kmm=$kmm_abs && expect_usage_error bench load-modes --smoke) || exit 1
if ls "$tmp"/BENCH_*.json >/dev/null 2>&1; then
  echo "usage_errors: a refused --smoke wrote a record" >&2
  exit 1
fi
