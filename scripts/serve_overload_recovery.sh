#!/usr/bin/env bash
# Overload-recovery gauntlet for the hardened `nfi serve` daemon: a
# mixed-tenant burst past the admission limits must shed with honest
# 429 + Retry-After replies (and never touch the journal), a local
# `nfi worker` killed mid-job must have its lease requeued to its
# replacement until the job completes without a daemon restart, and
# everything that was accepted must still serve bytes identical to an
# offline `nfi campaign run --as` of the same binary.
#
#   1. start the daemon with auth, rate limiting, deadlines and a
#      per-tenant queue quota of 2;
#   2. alice bursts three submissions on one lane — the third is shed
#      with 429 + Retry-After while bob's submission still lands (the
#      quota is per tenant, not global); alice's first job is a large
#      generated source (a thousand units, each running a looping
#      test), so the daemon's one local worker holds its lease for
#      seconds instead of the ~100ms a corpus job takes — long enough to
#      kill deterministically. The local workers share 127.0.0.1 with
#      the tenants but not their rate-limit bucket;
#   3. SIGKILL that local worker mid-job — the supervisor must requeue
#      its lease at once and a replacement must finish the job;
#   4. every accepted job completes; alice resubmits the shed program
#      once her quota drains and it completes too;
#   5. byte-diff each served document against the offline tenant-scoped
#      run, and assert the edge and fleet counters recorded the abuse.
#
# Usage: scripts/serve_overload_recovery.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/serve_lib.sh

NFI=./target/release/nfi
[ -x "$NFI" ] || cargo build --release --bin nfi

WORK=$(mktemp -d)
SERVE_PID=
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== start hardened daemon (quota 2 jobs/tenant, 1 lane) =="
printf 'alice:alice-ci-token\nbob:bob-ci-token\n' > "$WORK/tokens"
start_daemon "$WORK/serve.log" --state-dir "$WORK/state" --workers 1 --lanes 1 \
  --auth-token-file "$WORK/tokens" --rate-limit 200 --deadline-ms 300000 \
  --max-queue 32 --tenant-max-queued 2
echo "daemon at $ADDR"
req GET /healthz >/dev/null

# Unauthenticated requests must bounce off the edge with 401.
status=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/v1/metrics")
[ "$status" = 401 ] || { echo "FAIL: tokenless /v1/metrics got $status, want 401" >&2; exit 1; }

# A big submission whose lease stays on the local worker long enough
# for it to be SIGKILLed mid-run: the same source goes over HTTP
# (JSON-escaped) and to disk (verbatim) so the offline parity run plans
# identical units.
SLOW_SRC=$WORK/slow.py
SLOW_BODY='{"program":"slow","source":"'
: > "$SLOW_SRC"
for i in $(seq 1 120); do
  printf 'def f%s(x):\n    y = x + %s\n    if y > 10:\n        y = y - 1\n    return y\n' \
    "$i" "$i" >> "$SLOW_SRC"
  SLOW_BODY="${SLOW_BODY}def f$i(x):\\n    y = x + $i\\n    if y > 10:\\n        y = y - 1\\n    return y\\n"
done
# Every unit runs the suite, and this test loops, so each unit costs
# about a millisecond.
SPIN='def spin(n):\n    total = 0\n    i = 0\n    while i < n:\n        total = total + i\n        i = i + 1\n    return total\ndef test_spin():\n    assert spin(3000) == 4498500\n'
printf "$SPIN" >> "$SLOW_SRC"
SLOW_BODY="${SLOW_BODY}${SPIN}\"}"

echo "== mixed-tenant burst past the quota =="
AUTH_TOKEN=alice-ci-token
reply=$(req POST /v1/campaigns "$SLOW_BODY")
SLOW_ID=$(json_field "$reply" id)
SLOW_UNITS=$(json_field "$reply" units)
echo "slow job $SLOW_ID: $SLOW_UNITS units"
reply=$(req POST /v1/campaigns '{"program":"banking","priority":"high"}')
BANKING_ID=$(json_field "$reply" id)
# Two alice jobs are outstanding on a single lane, so the third must be
# shed — before the journal ever sees it — with an honest Retry-After.
req_raw POST /v1/campaigns '{"program":"jobqueue"}'
[ "$STATUS" = 429 ] \
  || { echo "FAIL: over-quota submission got $STATUS, want 429: $BODY" >&2; exit 1; }
grep -qi '^retry-after:' "$HDRS" \
  || { echo "FAIL: 429 shed carried no Retry-After header" >&2; cat "$HDRS" >&2; exit 1; }
# The quota is per tenant: bob's submission must still land.
AUTH_TOKEN=bob-ci-token
reply=$(req POST /v1/campaigns '{"program":"jobqueue"}')
BOB_ID=$(json_field "$reply" id)
[ -n "$BOB_ID" ] || { echo "FAIL: bob's submission was shed by alice's quota" >&2; exit 1; }
AUTH_TOKEN=alice-ci-token

echo "== kill the local worker mid-job =="
# The slow job runs first (FIFO, single lane); once it runs, the
# daemon's one local worker holds its lease for seconds. SIGKILL that
# worker and require the lease to requeue. The loop allows another
# try in case the kill lands in the moment before the lease is taken.
requeued=
for _ in 1 2 3; do
  for _ in $(seq 1 100); do
    [ "$(json_field "$(req GET "/v1/campaigns/$SLOW_ID")" status)" = running ] && break
    sleep 0.05
  done
  child=$(pgrep -P "$SERVE_PID" -f 'worker --addr' | head -1) || true
  [ -n "$child" ] || { echo "FAIL: never saw a local nfi worker child" >&2; exit 1; }
  kill -9 "$child" 2>/dev/null || true
  # The supervisor sees the exit within its 50ms check; 2s of grace is
  # generous before trying the replacement.
  for _ in $(seq 1 8); do
    if [ "$(json_field "$(req GET /v1/metrics)" assignments_requeued)" -ge 1 ]; then
      requeued=yes
      break 2
    fi
    sleep 0.25
  done
done
[ -n "$requeued" ] || { echo "FAIL: killed local workers never requeued a lease" >&2; exit 1; }
echo "local worker $child SIGKILLed; its lease requeued"

echo "== every accepted job completes without a restart =="
await "$SLOW_ID" >/dev/null
await "$BANKING_ID" >/dev/null
req GET "/v1/campaigns/$SLOW_ID/document" > "$WORK/alice.slow.jsonl"
req GET "/v1/campaigns/$BANKING_ID/document" > "$WORK/alice.banking.jsonl"
AUTH_TOKEN=bob-ci-token
await "$BOB_ID" >/dev/null
req GET "/v1/campaigns/$BOB_ID/document" > "$WORK/bob.jobqueue.jsonl"
AUTH_TOKEN=alice-ci-token

echo "== the shed submission lands once the quota drains =="
reply=$(req POST /v1/campaigns '{"program":"jobqueue"}')
RETRY_ID=$(json_field "$reply" id)
[ -n "$RETRY_ID" ] || { echo "FAIL: resubmission after drain was shed: $reply" >&2; exit 1; }
await "$RETRY_ID" >/dev/null
req GET "/v1/campaigns/$RETRY_ID/document" > "$WORK/alice.jobqueue.jsonl"

echo "== offline parity (tenant-scoped) =="
for spec in alice:slow alice:banking alice:jobqueue bob:jobqueue; do
  tenant=${spec%%:*}
  program=${spec#*:}
  if [ "$program" = slow ]; then
    "$NFI" campaign run --state-dir "$WORK/offline" --threads 1 \
      "$SLOW_SRC" --as "$spec" >/dev/null
  else
    "$NFI" campaign run --state-dir "$WORK/offline" --threads 1 \
      --program "$program" --as "$spec" >/dev/null
  fi
  if ! diff -q "$WORK/$tenant.$program.jsonl" "$WORK/offline/runs/$spec.jsonl" >/dev/null; then
    echo "FAIL: served $spec document differs from offline campaign run --as $spec" >&2
    diff "$WORK/$tenant.$program.jsonl" "$WORK/offline/runs/$spec.jsonl" >&2 || true
    exit 1
  fi
done

echo "== the counters recorded the abuse =="
metrics=$(req GET /v1/metrics)
echo "metrics: $metrics"
[ "$(json_field "$metrics" unauthorized)" -ge 1 ] \
  || { echo "FAIL: unauthorized counter never moved" >&2; exit 1; }
[ "$(json_field "$metrics" queue_shed)" -ge 1 ] \
  || { echo "FAIL: queue_shed counter never moved" >&2; exit 1; }
[ "$(json_field "$metrics" assignments_requeued)" -ge 1 ] \
  || { echo "FAIL: assignments_requeued counter never moved" >&2; exit 1; }
[ "$(json_field "$metrics" failed_units)" = 0 ] \
  || { echo "FAIL: the requeue should have salvaged every unit: $metrics" >&2; exit 1; }
[ "$(json_field "$metrics" assignments_completed)" -ge 1 ] \
  || { echo "FAIL: no store miss ran on a worker: $metrics" >&2; exit 1; }

echo "serve overload recovery: quota shed 429 + Retry-After before the journal;" \
     "SIGKILLed local worker's lease requeued; 4 tenant-scoped jobs byte-identical to offline --as"
