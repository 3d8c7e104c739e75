#!/usr/bin/env bash
# Restart-recovery gauntlet for the `nfi serve` job journal: a daemon
# killed mid-queue (SIGTERM, no drain) must lose **no accepted job** —
# a restart on the same state dir re-queues the unfinished ones, keeps
# the finished ones fetchable, and every document stays byte-identical
# to an offline `nfi campaign run` of the same binary.
#
#   1. start the daemon, run one warm-up job to done, fetch its bytes;
#   2. burst-submit every remaining corpus program (each 202 means the
#      journal holds the job), then SIGTERM the daemon immediately —
#      the queue is full of accepted, unfinished work;
#   3. restart on the same state dir;
#   4. assert the warm-up job restored as done with the same document
#      bytes, every burst job completes, and each document byte-diffs
#      clean against the offline run;
#   5. assert new ids keep counting above everything pre-kill.
#
# Usage: scripts/serve_restart_recovery.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/serve_lib.sh

NFI=./target/release/nfi
[ -x "$NFI" ] || cargo build --release --bin nfi

mapfile -t PROGRAMS < <("$NFI" corpus list | awk 'NR>1 {print $1}')
[ "${#PROGRAMS[@]}" -ge 3 ] || { echo "FAIL: corpus too small" >&2; exit 1; }
WARMUP=${PROGRAMS[0]}
BURST=("${PROGRAMS[@]:1}")

WORK=$(mktemp -d)
SERVE_PID=
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== start daemon, finish warm-up job ($WARMUP) =="
start_daemon "$WORK/serve.log" --state-dir "$WORK/state" --lanes 2 --workers 1
echo "daemon at $ADDR"
reply=$(req POST /v1/campaigns "{\"program\":\"$WARMUP\"}")
WARM_ID=$(json_field "$reply" id)
await "$WARM_ID" >/dev/null
req GET "/v1/campaigns/$WARM_ID/document" > "$WORK/warmup.prekill.jsonl"

echo "== burst-submit ${#BURST[@]} programs, SIGTERM mid-queue =="
declare -A JOB_ID
for p in "${BURST[@]}"; do
  reply=$(req POST /v1/campaigns "{\"program\":\"$p\"}")
  JOB_ID[$p]=$(json_field "$reply" id)
  [ -n "${JOB_ID[$p]}" ] || { echo "FAIL: no job id in $reply" >&2; exit 1; }
done
MAX_ID=$(printf '%s\n' "${JOB_ID[@]}" | sort -n | tail -1)
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=
# The local workers read a stdin pipe only the daemon held: they exit
# with it.
for _ in $(seq 1 50); do
  pgrep -f "worker --addr $ADDR --threads" >/dev/null || break
  sleep 0.1
done
if pgrep -f "worker --addr $ADDR --threads" >/dev/null; then
  echo "FAIL: local workers outlived the SIGTERMed daemon" >&2
  exit 1
fi

echo "== restart on the same state dir =="
start_daemon "$WORK/serve.log" --state-dir "$WORK/state" --lanes 2 --workers 1
echo "daemon back at $ADDR"

restored=$(req GET "/v1/campaigns/$WARM_ID")
[ "$(json_field "$restored" status)" = done ] \
  || { echo "FAIL: warm-up job not restored as done: $restored" >&2; exit 1; }
req GET "/v1/campaigns/$WARM_ID/document" > "$WORK/warmup.postkill.jsonl"
diff -q "$WORK/warmup.prekill.jsonl" "$WORK/warmup.postkill.jsonl" >/dev/null \
  || { echo "FAIL: restored warm-up document differs from pre-kill bytes" >&2; exit 1; }

echo "== every accepted job completes =="
for p in "${BURST[@]}"; do
  await "${JOB_ID[$p]}" >/dev/null
  req GET "/v1/campaigns/${JOB_ID[$p]}/document" > "$WORK/$p.served.jsonl"
done

echo "== offline parity =="
"$NFI" campaign run --state-dir "$WORK/offline" --threads 1 >/dev/null
for p in "${BURST[@]}"; do
  if ! diff -q "$WORK/$p.served.jsonl" "$WORK/offline/runs/$p.jsonl" >/dev/null; then
    echo "FAIL: recovered $p document differs from offline campaign run" >&2
    diff "$WORK/$p.served.jsonl" "$WORK/offline/runs/$p.jsonl" >&2 || true
    exit 1
  fi
done
diff -q "$WORK/warmup.prekill.jsonl" "$WORK/offline/runs/$WARMUP.jsonl" >/dev/null \
  || { echo "FAIL: warm-up document differs from offline campaign run" >&2; exit 1; }

echo "== ids keep counting past the journal =="
reply=$(req POST /v1/campaigns "{\"program\":\"$WARMUP\"}")
NEXT_ID=$(json_field "$reply" id)
[ "$NEXT_ID" -gt "$MAX_ID" ] \
  || { echo "FAIL: post-restart id $NEXT_ID reused journal space (max was $MAX_ID)" >&2; exit 1; }
await "$NEXT_ID" >/dev/null

metrics=$(req GET /v1/metrics)
echo "metrics: $metrics"
# Whatever the restarted daemon executed (the burst jobs the SIGTERM
# left queued) ran on its workers.
[ "$(json_field "$metrics" executed)" = 0 ] \
  || [ "$(json_field "$metrics" assignments_completed)" -ge 1 ] \
  || { echo "FAIL: no store miss ran on a worker: $metrics" >&2; exit 1; }
echo "serve restart recovery: $((${#BURST[@]} + 1)) accepted jobs survived SIGTERM;" \
     "finished document byte-stable; ${#BURST[@]} queued jobs completed byte-identical to offline"
