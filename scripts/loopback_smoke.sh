#!/usr/bin/env bash
# loopback_smoke.sh stands up the real multi-process deployment shape on
# loopback — four amatchd worker processes plus one amatchd coordinator
# (-ranks-addr) — runs a /match query (count + vectors) and an /explore
# query at k=2 through the coordinator, and byte-diffs each response body
# against a direct (in-process engine) amatchd serving the same graph. The
# only normalized field is elapsed_ms, the query's wall time; everything
# else must be byte-for-byte identical. Emits
# `loopback_match_identical=true` on success so CI can grep it.
#
# Every process listens on :0 (a kernel-assigned port) and prints the
# bound address in its "serving" log line, which this script parses — no
# fixed port range, so concurrent runs on one machine cannot collide.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$WORK/genrmat" ./cmd/genrmat
go build -o "$WORK/amatchd" ./cmd/amatchd

echo "== generating graph"
"$WORK/genrmat" -scale 9 -edgefactor 6 -seed 7 -out "$WORK/g.txt"

# bound_addr <logfile> <seconds>: waits for the process to print its
# kernel-assigned address (JSON log, "addr" field) and echoes it.
bound_addr() {
  local log="$1" deadline=$((SECONDS + $2)) addr
  while true; do
    addr="$(grep -o '"addr":"[^"]*"' "$log" 2>/dev/null | head -n1 | cut -d'"' -f4 || true)"
    if [ -n "$addr" ]; then
      echo "$addr"
      return 0
    fi
    if ((SECONDS >= deadline)); then
      echo "timed out waiting for bound address in $log" >&2
      tail -n 20 "$log" >&2 || true
      return 1
    fi
    sleep 0.2
  done
}

wait_http_ok() { # url, seconds — amatchd answers 503 until recovery completes
  local url="$1" deadline=$((SECONDS + $2))
  while ! curl -fsS -o /dev/null "$url" 2>/dev/null; do
    if ((SECONDS >= deadline)); then
      echo "timed out waiting for $url" >&2
      return 1
    fi
    sleep 0.2
  done
}

echo "== starting 4 amatchd workers"
RANKS=""
for i in 0 1 2 3; do
  "$WORK/amatchd" -graph "$WORK/g.txt" -addr 127.0.0.1:0 \
    >"$WORK/rank$i.log" 2>&1 &
  PIDS+=($!)
done
for i in 0 1 2 3; do
  addr="$(bound_addr "$WORK/rank$i.log" 30)"
  RANKS="${RANKS:+$RANKS,}$addr"
done
echo "   workers: $RANKS"

echo "== starting coordinator amatchd and direct amatchd"
"$WORK/amatchd" -graph "$WORK/g.txt" -addr 127.0.0.1:0 -ranks-addr "$RANKS" \
  >"$WORK/coord.log" 2>&1 &
PIDS+=($!)
"$WORK/amatchd" -graph "$WORK/g.txt" -addr 127.0.0.1:0 \
  >"$WORK/direct.log" 2>&1 &
PIDS+=($!)
COORD="$(bound_addr "$WORK/coord.log" 30)"
DIRECT="$(bound_addr "$WORK/direct.log" 30)"
wait_http_ok "http://$COORD/healthz" 30
wait_http_ok "http://$DIRECT/healthz" 30

QUERY='{"template":"v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\ne 0 2\n","k":1,"count":true,"vectors":true}'
strip_elapsed() { sed -E 's/"elapsed_ms":[0-9]+/"elapsed_ms":0/g'; }

echo "== querying /match and /explore through the coordinator and directly"
for path in /match /explore; do
  if [ "$path" = /explore ]; then
    QUERY='{"template":"v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\ne 0 2\n","k":2}'
  fi
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$QUERY" \
    "http://$COORD$path" | strip_elapsed >"$WORK/routed.json"
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$QUERY" \
    "http://$DIRECT$path" | strip_elapsed >"$WORK/direct.json"
  if ! cmp -s "$WORK/routed.json" "$WORK/direct.json"; then
    echo "FAIL: $path body via the worker group differs from in-process engine" >&2
    diff "$WORK/direct.json" "$WORK/routed.json" >&2 || true
    exit 1
  fi
  echo "$path: $(wc -c <"$WORK/routed.json") bytes, byte-identical"
done

echo "loopback_match_identical=true"
