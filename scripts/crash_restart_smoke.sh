#!/usr/bin/env bash
# crash_restart_smoke.sh is the end-to-end durability smoke: a WAL-backed
# amatchd ingests a batch stream, gets kill -9'd mid-stream with no
# warning, and is restarted on the same WAL dir. Every acknowledged batch
# must survive: the recovered epoch equals the number of 200-acked
# ingests, and the /match count and /stats edge count are identical to
# what the server reported just before the kill. Run 2 must recover from
# the checkpoint without parsing the seed file ("seed_loaded":false); run 3,
# after a comment line changes the seed file's bytes but not its graph,
# must parse it ("seed_loaded":true) and recover the same state. Emits
# `crash_restart_identical=true` on success so CI can grep it.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
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

bound_addr() { # logfile, seconds
  local log="$1" deadline=$((SECONDS + $2)) addr
  while true; do
    addr="$(grep -o '"addr":"[^"]*"' "$log" 2>/dev/null | head -n1 | cut -d'"' -f4 || true)"
    if [ -n "$addr" ]; then echo "$addr"; return 0; fi
    if ((SECONDS >= deadline)); then
      echo "timed out waiting for bound address in $log" >&2
      tail -n 20 "$log" >&2 || true
      return 1
    fi
    sleep 0.2
  done
}

wait_http_ok() { # url, seconds
  local url="$1" deadline=$((SECONDS + $2))
  while ! curl -fsS -o /dev/null "$url" 2>/dev/null; do
    if ((SECONDS >= deadline)); then
      echo "timed out waiting for $url" >&2
      return 1
    fi
    sleep 0.2
  done
}

start_amatchd() { # logfile
  "$WORK/amatchd" -graph "$WORK/g.txt" -addr 127.0.0.1:0 -ingest \
    -wal-dir "$WORK/wal" -wal-sync always -wal-checkpoint-every 8 \
    >"$1" 2>&1 &
  PIDS+=($!)
  LAST_PID=$!
}

QUERY='{"template":"v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\ne 0 2\n","k":1,"count":true}'
match_count() { # addr — per-prototype match counts, comma-joined
  curl -fsS -X POST -H 'Content-Type: application/json' -d "$QUERY" \
    "http://$1/match" | grep -o '"matches":[0-9]*' | cut -d: -f2 | paste -sd, -
}
stats_field() { # addr, field
  curl -fsS "http://$1/stats" | grep -o "\"$2\":[0-9]*" | head -n1 | cut -d: -f2
}

echo "== run 1: WAL-backed amatchd ingesting 20 batches"
start_amatchd "$WORK/run1.log"
ADDR="$(bound_addr "$WORK/run1.log" 30)"
wait_http_ok "http://$ADDR/healthz" 30

# 20 batches: toggle an edge absent from the (deterministic, seed-7)
# graph in and out, and relabel a rotating vertex. All must ack.
ACKED=0
for i in $(seq 1 20); do
  if ((i % 2 == 1)); then body="{\"insert\":[[200,400]],\"relabel\":[[$((i % 512)),1]]}"
  else body="{\"delete\":[[200,400]]}"; fi
  curl -fsS -o /dev/null -X POST -H 'Content-Type: application/json' -d "$body" \
    "http://$ADDR/ingest"
  ACKED=$((ACKED + 1))
done

PRE_EPOCH="$(stats_field "$ADDR" epoch)"
PRE_EDGES="$(stats_field "$ADDR" edges)"
PRE_COUNT="$(match_count "$ADDR")"
echo "   acked=$ACKED epoch=$PRE_EPOCH edges=$PRE_EDGES match_count=$PRE_COUNT"
if [ "$PRE_EPOCH" != "$ACKED" ]; then
  echo "FAIL: pre-kill epoch $PRE_EPOCH != acked batches $ACKED" >&2
  exit 1
fi

echo "== kill -9 (no shutdown, no final checkpoint)"
kill -9 "$LAST_PID"
wait "$LAST_PID" 2>/dev/null || true

echo "== run 2: restart on the same WAL dir"
start_amatchd "$WORK/run2.log"
ADDR2="$(bound_addr "$WORK/run2.log" 30)"
wait_http_ok "http://$ADDR2/healthz" 30
if ! grep -q '"msg":"wal recovered"' "$WORK/run2.log"; then
  echo "FAIL: restart did not go through WAL recovery" >&2
  tail -n 20 "$WORK/run2.log" >&2
  exit 1
fi
if ! grep '"msg":"wal recovered"' "$WORK/run2.log" | grep -q '"seed_loaded":false'; then
  echo "FAIL: restart on the recorded seed bytes parsed the seed" >&2
  tail -n 20 "$WORK/run2.log" >&2
  exit 1
fi

POST_EPOCH="$(stats_field "$ADDR2" epoch)"
POST_EDGES="$(stats_field "$ADDR2" edges)"
POST_COUNT="$(match_count "$ADDR2")"
echo "   recovered epoch=$POST_EPOCH edges=$POST_EDGES match_count=$POST_COUNT"

FAIL=0
[ "$POST_EPOCH" = "$PRE_EPOCH" ] || { echo "FAIL: epoch $POST_EPOCH != $PRE_EPOCH" >&2; FAIL=1; }
[ "$POST_EDGES" = "$PRE_EDGES" ] || { echo "FAIL: edges $POST_EDGES != $PRE_EDGES" >&2; FAIL=1; }
[ "$POST_COUNT" = "$PRE_COUNT" ] || { echo "FAIL: match count $POST_COUNT != $PRE_COUNT" >&2; FAIL=1; }
[ "$FAIL" = 0 ] || exit 1

# A post-recovery ingest must still work (the log accepts the next epoch).
curl -fsS -o /dev/null -X POST -H 'Content-Type: application/json' \
  -d '{"relabel":[[0,1]]}' "http://$ADDR2/ingest"
FINAL_EPOCH="$(stats_field "$ADDR2" epoch)"
if [ "$FINAL_EPOCH" != "$((POST_EPOCH + 1))" ]; then
  echo "FAIL: post-recovery ingest moved epoch to $FINAL_EPOCH, want $((POST_EPOCH + 1))" >&2
  exit 1
fi
FINAL_EDGES="$(stats_field "$ADDR2" edges)"
FINAL_COUNT="$(match_count "$ADDR2")"

echo "== kill -9, then a comment line changes the seed file's bytes"
kill -9 "$LAST_PID"
wait "$LAST_PID" 2>/dev/null || true
echo "# same graph, new bytes" >>"$WORK/g.txt"

echo "== run 3: restart on the edited seed file"
start_amatchd "$WORK/run3.log"
ADDR3="$(bound_addr "$WORK/run3.log" 30)"
wait_http_ok "http://$ADDR3/healthz" 30
if ! grep '"msg":"wal recovered"' "$WORK/run3.log" | grep -q '"seed_loaded":true'; then
  echo "FAIL: restart on changed seed bytes did not parse the seed" >&2
  tail -n 20 "$WORK/run3.log" >&2
  exit 1
fi
RUN3_EPOCH="$(stats_field "$ADDR3" epoch)"
RUN3_EDGES="$(stats_field "$ADDR3" edges)"
RUN3_COUNT="$(match_count "$ADDR3")"
echo "   recovered epoch=$RUN3_EPOCH edges=$RUN3_EDGES match_count=$RUN3_COUNT"
[ "$RUN3_EPOCH" = "$FINAL_EPOCH" ] || { echo "FAIL: run 3 epoch $RUN3_EPOCH != $FINAL_EPOCH" >&2; FAIL=1; }
[ "$RUN3_EDGES" = "$FINAL_EDGES" ] || { echo "FAIL: run 3 edges $RUN3_EDGES != $FINAL_EDGES" >&2; FAIL=1; }
[ "$RUN3_COUNT" = "$FINAL_COUNT" ] || { echo "FAIL: run 3 match count $RUN3_COUNT != $FINAL_COUNT" >&2; FAIL=1; }
[ "$FAIL" = 0 ] || exit 1

echo "crash_restart_identical=true"
