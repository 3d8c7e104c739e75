#!/usr/bin/env bash
# Serve-parity check: documents served by the `nfi serve` daemon (with
# its local `nfi worker` children) must be byte-identical to an offline
# `nfi campaign run --state-dir` of the same binary — with the full
# hardening stack enabled: bearer auth, rate limiting, queue deadlines,
# and four scheduler lanes.
#
#   1. start the daemon on an ephemeral port with auth + limits on;
#   2. submit two corpus programs over HTTP as tenant `ci`, poll both
#      to completion (failing on any non-2xx along the way);
#   3. fetch each document and byte-diff it against an offline
#      `nfi campaign run --as ci:<program>` of the same store segment;
#   4. resubmit one program — the store-warm job must execute 0 units
#      and serve the same bytes (its /trace span tree must agree);
#   5. scrape GET /metrics and conformance-check the Prometheus page;
#   6. grep the daemon's debug-level log: the bearer token must never
#      appear in any diagnostic or access-log line.
#
# Usage: scripts/serve_parity.sh [program ...]   (default: banking jobqueue)
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/serve_lib.sh

NFI=./target/release/nfi
[ -x "$NFI" ] || cargo build --release --bin nfi

if [ "$#" -gt 0 ]; then
  PROGRAMS=("$@")
else
  PROGRAMS=(banking jobqueue)
fi

WORK=$(mktemp -d)
SERVE_PID=
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== start hardened daemon =="
printf 'ci:parity-ci-token\n' > "$WORK/tokens"
# Debug level turns the per-request access log on — the leak check
# below must hold even on the chattiest production-relevant level.
start_daemon "$WORK/serve.log" --state-dir "$WORK/served" --workers 2 --lanes 4 \
  --auth-token-file "$WORK/tokens" --rate-limit 200 --deadline-ms 300000 \
  --max-queue 64 --tenant-max-queued 32 --log-level debug
echo "daemon at $ADDR"
req GET /healthz >/dev/null
# No token -> the edge must refuse before the router ever sees the path.
if curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/v1/metrics" | grep -qv 401; then
  echo "FAIL: unauthenticated /v1/metrics was not refused with 401" >&2
  exit 1
fi
AUTH_TOKEN=parity-ci-token

declare -A JOB_ID
for p in "${PROGRAMS[@]}"; do
  echo "== submit $p =="
  reply=$(req POST /v1/campaigns "{\"program\":\"$p\"}")
  JOB_ID[$p]=$(json_field "$reply" id)
  [ -n "${JOB_ID[$p]}" ] || { echo "FAIL: no job id in $reply" >&2; exit 1; }
done

for p in "${PROGRAMS[@]}"; do
  echo "== await + fetch $p =="
  await "${JOB_ID[$p]}" >/dev/null
  req GET "/v1/campaigns/${JOB_ID[$p]}/document" > "$WORK/$p.served.jsonl"
done

echo "== offline parity (tenant-scoped) =="
for p in "${PROGRAMS[@]}"; do
  # The daemon namespaced each job to `ci:<program>`; `--as` reproduces
  # exactly that store segment offline.
  "$NFI" campaign run --state-dir "$WORK/offline" --threads 2 \
    --program "$p" --as "ci:$p" >/dev/null
done
for p in "${PROGRAMS[@]}"; do
  if ! diff -q "$WORK/$p.served.jsonl" "$WORK/offline/runs/ci:$p.jsonl" >/dev/null; then
    echo "FAIL: served $p document differs from offline campaign run --as ci:$p" >&2
    diff "$WORK/$p.served.jsonl" "$WORK/offline/runs/ci:$p.jsonl" >&2 || true
    exit 1
  fi
done

echo "== store-warm resubmission of ${PROGRAMS[0]} =="
reply=$(req POST /v1/campaigns "{\"program\":\"${PROGRAMS[0]}\"}")
warm_id=$(json_field "$reply" id)
warm=$(await "$warm_id")
[ "$(json_field "$warm" executed)" = 0 ] \
  || { echo "FAIL: warm job executed units: $warm" >&2; exit 1; }
req GET "/v1/campaigns/$warm_id/document" > "$WORK/warm.jsonl"
diff -q "$WORK/warm.jsonl" "$WORK/${PROGRAMS[0]}.served.jsonl" >/dev/null \
  || { echo "FAIL: warm served document differs" >&2; exit 1; }

echo "== warm job trace =="
trace=$(req GET "/v1/campaigns/$warm_id/trace")
echo "$trace" | grep -q '"executed":0' \
  || { echo "FAIL: warm trace does not report executed:0: $trace" >&2; exit 1; }
echo "$trace" | grep -q '"trace_id":"' \
  || { echo "FAIL: warm trace carries no trace id: $trace" >&2; exit 1; }
for span in accept plan queue_wait run store_replay merge persist; do
  echo "$trace" | grep -q "\"name\":\"$span\"" \
    || { echo "FAIL: warm trace misses the $span span: $trace" >&2; exit 1; }
done

metrics=$(req GET /v1/metrics)
echo "metrics: $metrics"
[ "$(json_field "$metrics" unauthorized)" -ge 1 ] \
  || { echo "FAIL: the 401 probe never reached the unauthorized counter" >&2; exit 1; }
echo "$metrics" | grep -q '"latency":' \
  || { echo "FAIL: /v1/metrics carries no latency section" >&2; exit 1; }
[ "$(json_field "$metrics" assignments_completed)" -ge 1 ] \
  || { echo "FAIL: no store miss ran on a worker: $metrics" >&2; exit 1; }

echo "== Prometheus exposition =="
prom_headers="$WORK/prom-headers"
curl -sS -D "$prom_headers" -H "Authorization: Bearer $AUTH_TOKEN" \
  "http://$ADDR/metrics" > "$WORK/metrics.prom"
grep -qi '^content-type: text/plain; version=0.0.4' "$prom_headers" \
  || { echo "FAIL: /metrics content type is not the 0.0.4 text format" >&2; exit 1; }
# Conformance: every sample line is `name{labels} value`, every family
# that has samples also has its # TYPE line, histograms end on +Inf.
if grep -v '^#' "$WORK/metrics.prom" | grep -v '^$' \
  | grep -Evq '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+$'; then
  echo "FAIL: malformed Prometheus sample line(s):" >&2
  grep -v '^#' "$WORK/metrics.prom" | grep -v '^$' \
    | grep -Ev '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+$' >&2
  exit 1
fi
for name in $(grep -v '^#' "$WORK/metrics.prom" | grep -v '^$' \
  | sed -E 's/^([a-zA-Z_:][a-zA-Z0-9_:]*).*/\1/' \
  | sed -E 's/_(bucket|sum|count)$//' | sort -u); do
  grep -Eq "^# TYPE ($name|${name}_[a-z]+) " "$WORK/metrics.prom" \
    || { echo "FAIL: sampled family $name has no # TYPE line" >&2; exit 1; }
done
for family in nfi_jobs_submitted_total nfi_jobs_completed_total \
  nfi_store_units_total nfi_store_replayed_total nfi_edge_rejections_total \
  nfi_fleet_assignments_total nfi_queue_depth; do
  grep -q "^$family" "$WORK/metrics.prom" \
    || { echo "FAIL: /metrics misses $family" >&2; exit 1; }
done
grep -q '^# TYPE nfi_http_request_duration_seconds histogram' "$WORK/metrics.prom" \
  || { echo "FAIL: /metrics misses the request-duration histogram" >&2; exit 1; }
grep -q 'nfi_http_request_duration_seconds_bucket{.*le="+Inf"' "$WORK/metrics.prom" \
  || { echo "FAIL: request-duration histogram has no +Inf bucket" >&2; exit 1; }
grep -q '^nfi_phase_duration_seconds_count{phase="store_replay"' "$WORK/metrics.prom" \
  || { echo "FAIL: /metrics misses the store_replay phase histogram" >&2; exit 1; }

echo "== bearer token must not leak into the daemon log =="
# The daemon ran at debug (access log on) and handled authed, 401, and
# malformed traffic; its combined stdout+stderr must never contain the
# token value.
if grep -q "parity-ci-token" "$WORK/serve.log"; then
  echo "FAIL: bearer token leaked into the daemon log:" >&2
  grep -n "parity-ci-token" "$WORK/serve.log" >&2
  exit 1
fi
grep -q '"event":"http_request"' "$WORK/serve.log" \
  || { echo "FAIL: debug level produced no access-log lines" >&2; exit 1; }

echo "serve parity: ${#PROGRAMS[@]} program(s) byte-identical served (auth + limits + 4 lanes) vs offline --as; warm resubmission executed 0 units; trace + /metrics checks passed; no token leak at debug level"
