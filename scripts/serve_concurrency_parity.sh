#!/usr/bin/env bash
# Concurrency-parity gauntlet for `nfi serve --lanes`: with four
# scheduler lanes draining the queue, a burst of every corpus program
# (plus a duplicate same-program submission racing the original) must
# produce documents byte-identical to an offline `nfi campaign run` of
# the same binary — concurrency may reorder work, never change bytes.
#
#   1. start the daemon with --lanes 4 on an ephemeral port;
#   2. submit every corpus program in one burst, plus the first
#      program a second time (the duplicate exercises the
#      per-(program, machine-fp) segment lock);
#   3. poll everything to completion, fetch every document;
#   4. byte-diff each against the offline run;
#   5. assert the duplicate pair executed its units exactly once
#      between them (lock held: one runs cold, the other replays) and
#      served identical bytes — a corrupted segment would fail both.
#
# Usage: scripts/serve_concurrency_parity.sh [lanes]   (default: 4)
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/serve_lib.sh

NFI=./target/release/nfi
[ -x "$NFI" ] || cargo build --release --bin nfi

LANES=${1:-4}
mapfile -t PROGRAMS < <("$NFI" corpus list | awk 'NR>1 {print $1}')
[ "${#PROGRAMS[@]}" -ge 2 ] || { echo "FAIL: corpus too small" >&2; exit 1; }

WORK=$(mktemp -d)
SERVE_PID=
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== start daemon (--lanes $LANES) =="
start_daemon "$WORK/serve.log" --state-dir "$WORK/served" --lanes "$LANES" --workers 1
echo "daemon at $ADDR"

echo "== burst-submit ${#PROGRAMS[@]} programs + 1 duplicate =="
declare -A JOB_ID
for p in "${PROGRAMS[@]}"; do
  reply=$(req POST /v1/campaigns "{\"program\":\"$p\"}")
  JOB_ID[$p]=$(json_field "$reply" id)
  [ -n "${JOB_ID[$p]}" ] || { echo "FAIL: no job id in $reply" >&2; exit 1; }
done
DUP=${PROGRAMS[0]}
reply=$(req POST /v1/campaigns "{\"program\":\"$DUP\"}")
DUP_ID=$(json_field "$reply" id)

declare -A STATUS
for p in "${PROGRAMS[@]}"; do
  STATUS[$p]=$(await "${JOB_ID[$p]}")
  req GET "/v1/campaigns/${JOB_ID[$p]}/document" > "$WORK/$p.served.jsonl"
done
DUP_STATUS=$(await "$DUP_ID")
req GET "/v1/campaigns/$DUP_ID/document" > "$WORK/dup.served.jsonl"

echo "== offline parity (all programs) =="
"$NFI" campaign run --state-dir "$WORK/offline" --threads 1 >/dev/null
for p in "${PROGRAMS[@]}"; do
  if ! diff -q "$WORK/$p.served.jsonl" "$WORK/offline/runs/$p.jsonl" >/dev/null; then
    echo "FAIL: lane-served $p document differs from offline campaign run" >&2
    diff "$WORK/$p.served.jsonl" "$WORK/offline/runs/$p.jsonl" >&2 || true
    exit 1
  fi
done

echo "== duplicate same-program pair: single execution, identical bytes =="
units=$(json_field "${STATUS[$DUP]}" units)
exec_a=$(json_field "${STATUS[$DUP]}" executed)
exec_b=$(json_field "$DUP_STATUS" executed)
if [ "$((exec_a + exec_b))" -ne "$units" ]; then
  echo "FAIL: duplicate $DUP jobs executed $exec_a + $exec_b units of $units —" \
       "the segment lock let them double-run or corrupt the segment" >&2
  exit 1
fi
diff -q "$WORK/dup.served.jsonl" "$WORK/$DUP.served.jsonl" >/dev/null \
  || { echo "FAIL: duplicate $DUP documents differ" >&2; exit 1; }

metrics=$(req GET /v1/metrics)
case "$metrics" in
  *"\"lanes\":$LANES"*) ;;
  *) echo "FAIL: metrics do not report lanes=$LANES: $metrics" >&2; exit 1 ;;
esac
echo "metrics: $metrics"
[ "$(json_field "$metrics" assignments_completed)" -ge 1 ] \
  || { echo "FAIL: no store miss ran on a worker: $metrics" >&2; exit 1; }
echo "serve concurrency parity: ${#PROGRAMS[@]} programs over $LANES lanes byte-identical" \
     "to offline; duplicate pair executed $exec_a+$exec_b of $units units exactly once"
