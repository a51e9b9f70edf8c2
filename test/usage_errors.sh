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
