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
for name in m-tree s-tree s-tree-nodelta cole amir kangaroo naive bidir; do
  case ", $valid," in
    *", $name,"*) ;;
    *) echo "usage_errors: engine $name missing from: $valid" >&2; exit 1 ;;
  esac
done
case ", $valid," in
  *", hybrid,"*) echo "usage_errors: hybrid still listed: $valid" >&2; exit 1 ;;
esac

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
