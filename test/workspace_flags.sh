#!/usr/bin/env bash
# The root dune-workspace must select the release profile (no -opaque,
# so calls across modules inline) and give it dune's dev flags verbatim
# (so the lint stays as strict as in a dev build).  Comments and
# whitespace are ignored; anything else that drops either fails.
# Usage: workspace_flags.sh DUNE_WORKSPACE
set -uo pipefail
ws=$1

die() {
  echo "workspace_flags: $*" >&2
  exit 1
}

[ -f "$ws" ] || die "$ws not found"
# Strip comments, then fold every run of whitespace (newlines
# included) to one space and drop spaces next to parentheses.
flat=$(sed 's/;.*$//' "$ws" | tr -s ' \t\n' ' ' | sed -e 's/ *( */(/g' -e 's/ *) */)/g')

case "$flat" in
*"(profile release)"*) ;;
*) die "does not select (profile release)" ;;
esac

dev_flags='(flags(-w @1..3@5..28@30..39@43@46..47@49..57@61..62-40 -strict-sequence -strict-formats -short-paths -keep-locs))'
case "$flat" in
*"(env(release$dev_flags)"*) ;;
*) die "the release env does not carry the dev flags $dev_flags" ;;
esac
