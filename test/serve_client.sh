#!/usr/bin/env bash
# `kmm client` against a live `kmm serve`: a query over the socket must
# print exactly what `kmm search` prints for it (default engine and
# m-tree, a pattern with one hit and one with many), `--ping` answers
# pong, `--info` reports the index length, `--metrics` exports the event
# loop's poll counters, an engine the daemon does not
# serve exits with code 2, and `--shutdown` drains the daemon, which
# then exits and removes its socket.
# Usage: serve_client.sh KMM_EXE
set -uo pipefail
kmm=$1
tmp=$(mktemp -d)
daemon=
cleanup() {
  if [ -n "$daemon" ] && kill -0 "$daemon" 2>/dev/null; then
    kill -TERM "$daemon" 2>/dev/null
    wait "$daemon" 2>/dev/null
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

die() {
  echo "serve_client: $*" >&2
  [ -f "$tmp/serve.log" ] && cat "$tmp/serve.log" >&2
  exit 1
}

quietly() {
  "$@" >"$tmp/log" 2>&1 || { cat "$tmp/log" >&2; die "$* failed"; }
}

quietly "$kmm" generate --size 20000 --seed 7 -o "$tmp/g.fa"
quietly "$kmm" index --genome "$tmp/g.fa" --output "$tmp/g.fmi"
sock=$tmp/kmm.sock
"$kmm" serve --index "$tmp/g.fmi" --socket "$sock" --jobs 1 >"$tmp/serve.log" 2>&1 &
daemon=$!
for _ in $(seq 100); do
  [ -S "$sock" ] && break
  kill -0 "$daemon" 2>/dev/null || die "kmm serve exited before listening"
  sleep 0.1
done
[ -S "$sock" ] || die "kmm serve did not listen within 10 s"

client() {
  "$kmm" client -s "$sock" --timeout 10 "$@"
}

# 30 bases from the second FASTA line (60 per line), and a short
# pattern with many hits within k = 1.
long=$(sed -n 2p "$tmp/g.fa" | cut -c5-34)
short=$(sed -n 3p "$tmp/g.fa" | cut -c1-6)
for engine in bidir m-tree; do
  for query in "2 $long" "1 $short"; do
    set -- $query
    client --engine "$engine" -k "$1" "$2" >"$tmp/wire" || die "client query ($engine, k=$1) exited $?"
    "$kmm" search -i "$tmp/g.fmi" --engine "$engine" -k "$1" "$2" >"$tmp/offline"
    [ -s "$tmp/offline" ] || die "no hits offline for $2 (k=$1): the check would be vacuous"
    cmp -s "$tmp/wire" "$tmp/offline" ||
      die "client and search differ for $2 ($engine, k=$1): $(diff "$tmp/wire" "$tmp/offline" | head -5)"
  done
done
[ "$(wc -l <"$tmp/offline")" -gt 1 ] || die "the short pattern has one hit: the check would not cover several"

client --ping >"$tmp/out" || die "--ping exited $?"
grep -q '^pong' "$tmp/out" || die "--ping printed: $(cat "$tmp/out")"
client --info >"$tmp/out" || die "--info exited $?"
grep -q '"length":20000' "$tmp/out" || die "--info printed: $(cat "$tmp/out")"

# The event loop's poll counters are exported once queries were answered.
client --metrics >"$tmp/out" || die "--metrics exited $?"
for name in kmm_serve_poll_ns kmm_serve_poll_hits; do
  grep -Eq "^$name [0-9]" "$tmp/out" || die "--metrics does not export $name"
done

client --engine cole -k 1 "$long" >"$tmp/out" 2>"$tmp/err"
code=$?
[ "$code" -eq 2 ] || die "an unservable engine exited $code, expected 2"
[ -s "$tmp/out" ] && die "an unservable engine wrote to stdout"

client --shutdown || die "--shutdown exited $?"
for _ in $(seq 100); do
  kill -0 "$daemon" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$daemon" 2>/dev/null && die "kmm serve still running 10 s after --shutdown"
wait "$daemon" || die "kmm serve exited $? after --shutdown"
daemon=
[ -e "$sock" ] && die "the socket outlived the daemon"
exit 0
