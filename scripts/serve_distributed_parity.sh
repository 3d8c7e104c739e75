#!/usr/bin/env bash
# Distributed-execution parity gauntlet: documents produced by a
# scheduler daemon dispatching to its local `nfi worker` children plus
# remote `nfi worker` nodes must be byte-identical to an offline
# `nfi campaign run` — including when a remote worker is SIGKILLed
# mid-campaign.
#
#   1. start the daemon with auth on and a short heartbeat timeout; it
#      starts lanes × workers local workers of its own;
#   2. start three localhost remote workers authenticated with the
#      dedicated `worker:` tenant token (one via --token-file to
#      exercise the tenant:token form) and wait until the fleet reports
#      the local workers plus all three;
#   3. submit every corpus program as tenant `ci`;
#   4. SIGKILL one worker mid-run — requeue + the surviving workers
#      must make the loss invisible;
#   5. await every job, fetch every document, and byte-diff each
#      against an offline `nfi campaign run --as ci:<program>`;
#   6. assert the fleet counters on /v1/metrics (registrations,
#      dispatches, completions, the lost worker, no unit run inside the
#      daemon) and the `nfi_fleet_*` families on the Prometheus page.
#
# Usage: scripts/serve_distributed_parity.sh [program ...]
#        (default: every corpus program)
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/serve_lib.sh

NFI=./target/release/nfi
[ -x "$NFI" ] || cargo build --release --bin nfi

if [ "$#" -gt 0 ]; then
  PROGRAMS=("$@")
else
  mapfile -t PROGRAMS < <("$NFI" corpus list | awk 'NR>1 {print $1}')
fi
[ "${#PROGRAMS[@]}" -ge 1 ] || { echo "FAIL: no corpus programs" >&2; exit 1; }

WORK=$(mktemp -d)
SERVE_PID=
WORKER_PIDS=()
cleanup() {
  for pid in "${WORKER_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== start scheduler daemon =="
printf 'ci:parity-ci-token\nworker:fleet-worker-token\n' > "$WORK/tokens"
start_daemon "$WORK/serve.log" --state-dir "$WORK/served" --workers 2 --lanes 4 \
  --auth-token-file "$WORK/tokens" --heartbeat-timeout-ms 1500 \
  --log-level debug
LOCAL=$((4 * 2))
echo "daemon at $ADDR with $LOCAL local workers"
AUTH_TOKEN=parity-ci-token
req GET /healthz >/dev/null

echo "== start 3 remote workers =="
# Campaign tenants must not see the fleet surface at all.
if curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -H "Authorization: Bearer $AUTH_TOKEN" -d '{}' \
  "http://$ADDR/v1/workers" | grep -qv 404; then
  echo "FAIL: a campaign tenant could reach POST /v1/workers" >&2
  exit 1
fi
printf 'worker:fleet-worker-token\n' > "$WORK/worker-token"
"$NFI" worker --addr "$ADDR" --token-file "$WORK/worker-token" \
  --name w1 --threads 1 > "$WORK/w1.log" 2>&1 &
WORKER_PIDS+=($!)
for i in 2 3; do
  "$NFI" worker --addr "$ADDR" --token fleet-worker-token \
    --name "w$i" --threads 1 > "$WORK/w$i.log" 2>&1 &
  WORKER_PIDS+=($!)
done
for _ in $(seq 1 100); do
  live=$(json_field "$(req GET /v1/metrics)" workers_live)
  [ "$live" = $((LOCAL + 3)) ] && break
  sleep 0.1
done
[ "$live" = $((LOCAL + 3)) ] || { echo "FAIL: fleet never reached $LOCAL local + 3 remote live workers (got ${live:-none})" >&2; cat "$WORK"/w*.log >&2; exit 1; }
echo "$LOCAL local + 3 remote workers live"

echo "== submit ${#PROGRAMS[@]} corpus programs =="
declare -A JOB_ID
for p in "${PROGRAMS[@]}"; do
  reply=$(req POST /v1/campaigns "{\"program\":\"$p\"}")
  JOB_ID[$p]=$(json_field "$reply" id)
  [ -n "${JOB_ID[$p]}" ] || { echo "FAIL: no job id in $reply" >&2; exit 1; }
done

echo "== SIGKILL remote worker w3 mid-run =="
sleep 0.3
kill -9 "${WORKER_PIDS[2]}"

for p in "${PROGRAMS[@]}"; do
  echo "== await + fetch $p =="
  await "${JOB_ID[$p]}" >/dev/null
  req GET "/v1/campaigns/${JOB_ID[$p]}/document" > "$WORK/$p.served.jsonl"
done

echo "== offline parity =="
for p in "${PROGRAMS[@]}"; do
  "$NFI" campaign run --state-dir "$WORK/offline" --threads 2 \
    --program "$p" --as "ci:$p" >/dev/null
done
for p in "${PROGRAMS[@]}"; do
  if ! diff -q "$WORK/$p.served.jsonl" "$WORK/offline/runs/ci:$p.jsonl" >/dev/null; then
    echo "FAIL: remote-worker $p document differs from offline campaign run --as ci:$p" >&2
    diff "$WORK/$p.served.jsonl" "$WORK/offline/runs/ci:$p.jsonl" >&2 || true
    exit 1
  fi
done

# The daemon marks a worker lost once its heartbeat is 1.5 s overdue;
# the corpus can finish sooner than that, so give the timeout time to
# expire before reading the counters.
echo "== wait for the killed worker's heartbeat timeout =="
for _ in $(seq 1 50); do
  [ "$(json_field "$(req GET /v1/metrics)" workers_live)" = $((LOCAL + 2)) ] && break
  sleep 0.1
done

echo "== fleet counters =="
metrics=$(req GET /v1/metrics)
echo "metrics: $metrics"
echo "$metrics" | grep -q '"fleet":{' \
  || { echo "FAIL: /v1/metrics carries no fleet section" >&2; exit 1; }
[ "$(json_field "$metrics" workers_live)" = $((LOCAL + 2)) ] \
  || { echo "FAIL: expected $LOCAL local + 2 remote live workers after the kill" >&2; exit 1; }
[ "$(json_field "$metrics" workers_lost)" -ge 1 ] \
  || { echo "FAIL: the killed worker was never marked lost" >&2; exit 1; }
[ "$(json_field "$metrics" registrations)" -ge $((LOCAL + 3)) ] \
  || { echo "FAIL: expected at least $((LOCAL + 3)) registrations" >&2; exit 1; }
[ "$(json_field "$metrics" assignments_dispatched)" -ge 1 ] \
  || { echo "FAIL: no assignments were dispatched remotely" >&2; exit 1; }
completed=$(json_field "$metrics" assignments_completed)
[ "$completed" -ge 1 ] \
  || { echo "FAIL: no assignments were completed by workers" >&2; exit 1; }
echo "fleet executed $completed assignment(s) across the corpus"

echo "== Prometheus fleet families =="
curl -sS -H "Authorization: Bearer $AUTH_TOKEN" "http://$ADDR/metrics" > "$WORK/metrics.prom"
grep -q "^nfi_fleet_workers{state=\"live\"} $((LOCAL + 2))\$" "$WORK/metrics.prom" \
  || { echo "FAIL: nfi_fleet_workers live gauge is not $((LOCAL + 2))" >&2; exit 1; }
for family in nfi_fleet_events_total nfi_fleet_assignments_total; do
  grep -q "^$family" "$WORK/metrics.prom" \
    || { echo "FAIL: /metrics misses $family" >&2; exit 1; }
done

echo "== bearer tokens must not leak into the daemon log =="
if grep -qE 'parity-ci-token|fleet-worker-token' "$WORK/serve.log"; then
  echo "FAIL: a bearer token leaked into the daemon log" >&2
  exit 1
fi

echo "distributed parity: ${#PROGRAMS[@]} program(s) byte-identical via $LOCAL local + 3 remote workers (one SIGKILLed mid-run); fleet counters + nfi_fleet_* families present; no token leak"
