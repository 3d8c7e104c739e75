#!/usr/bin/env bash
# Incremental-store parity check:
#
#   1. cold-run a small program set through `nfi campaign run` — every
#      unit executes;
#   2. warm re-run with unchanged sources — zero units execute and the
#      merged documents are byte-identical to the cold run's;
#   3. edit matrix against the first program, each cycle byte-diffed
#      against a from-scratch run of the same sources:
#        a. comment-only edit — the canonical printer strips comments,
#           so the module fingerprint is unchanged and zero units
#           re-execute (plain warm fast path);
#        b. one-function body edit (semantics-preserving `+ 0`) — only
#           that function's units re-execute, the rest anchor-replay
#           from the prior segment (ecommerce only; skipped when the
#           first program is something else);
#        c. added function — only the new function's units execute,
#           every pre-existing unit replays.
#
# Usage: scripts/incremental_parity.sh [program ...]
#        (default: ecommerce banking jobqueue; the first named program
#         is the one that gets edited)
set -euo pipefail
cd "$(dirname "$0")/.."

NFI=./target/release/nfi
[ -x "$NFI" ] || cargo build --release --bin nfi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if [ "$#" -gt 0 ]; then
  PROGRAMS=("$@")
else
  PROGRAMS=(ecommerce banking jobqueue)
fi
EDITED="${PROGRAMS[0]}"

mkdir -p "$WORK/src"
FILES=()
for p in "${PROGRAMS[@]}"; do
  "$NFI" corpus show "$p" > "$WORK/src/$p.py"
  FILES+=("$WORK/src/$p.py")
done

# `run program=<name> ... <field>=<n> ...` -> the numeric field value.
field() { # field <log> <program> <field>
  awk -v p="run program=$2" -v f="$3" \
    '$0 ~ p { for (i = 1; i <= NF; i++) if (split($i, kv, "=") == 2 && kv[1] == f) print kv[2] }' \
    "$1"
}

echo "== cold run =="
"$NFI" campaign run --state-dir "$WORK/state" --threads 2 "${FILES[@]}" | tee "$WORK/cold.log"
mkdir -p "$WORK/cold-docs"
for p in "${PROGRAMS[@]}"; do
  [ "$(field "$WORK/cold.log" "$p" replayed)" = 0 ] \
    || { echo "FAIL: $p cold run replayed units from an empty store" >&2; exit 1; }
  [ "$(field "$WORK/cold.log" "$p" executed)" -gt 0 ] \
    || { echo "FAIL: $p cold run executed nothing" >&2; exit 1; }
  cp "$WORK/state/runs/$p.jsonl" "$WORK/cold-docs/$p.jsonl"
done

echo "== warm re-run (unchanged sources) =="
"$NFI" campaign run --state-dir "$WORK/state" --threads 2 "${FILES[@]}" | tee "$WORK/warm.log"
for p in "${PROGRAMS[@]}"; do
  [ "$(field "$WORK/warm.log" "$p" executed)" = 0 ] \
    || { echo "FAIL: $p warm run re-executed units with unchanged sources" >&2; exit 1; }
  if ! diff -q "$WORK/cold-docs/$p.jsonl" "$WORK/state/runs/$p.jsonl" >/dev/null; then
    echo "FAIL: $p warm document differs from the cold run" >&2
    diff "$WORK/cold-docs/$p.jsonl" "$WORK/state/runs/$p.jsonl" >&2 || true
    exit 1
  fi
done

# Every program other than the edited one must stay fully warm.
check_untouched() { # check_untouched <log> <phase>
  for p in "${PROGRAMS[@]}"; do
    [ "$p" = "$EDITED" ] && continue
    [ "$(field "$1" "$p" executed)" = 0 ] \
      || { echo "FAIL: untouched $p re-executed units after the $2 edit" >&2; exit 1; }
  done
}

# Byte-diff every incremental document against a from-scratch run of
# the current sources in a fresh state dir.
check_scratch_parity() { # check_scratch_parity <scratch-dir> <phase>
  "$NFI" campaign run --state-dir "$1" "${FILES[@]}" >/dev/null
  for p in "${PROGRAMS[@]}"; do
    if ! diff -q "$1/runs/$p.jsonl" "$WORK/state/runs/$p.jsonl" >/dev/null; then
      echo "FAIL: $p incremental document differs from a from-scratch run after the $2 edit" >&2
      diff "$1/runs/$p.jsonl" "$WORK/state/runs/$p.jsonl" >&2 || true
      exit 1
    fi
  done
}

echo "== edit matrix a: comment-only edit to $EDITED =="
echo "# parity probe: comments never reach the canonical form" >> "$WORK/src/$EDITED.py"
"$NFI" campaign run --state-dir "$WORK/state" --threads 2 "${FILES[@]}" | tee "$WORK/edit-comment.log"
[ "$(field "$WORK/edit-comment.log" "$EDITED" executed)" = 0 ] \
  || { echo "FAIL: comment-only edit re-executed units" >&2; exit 1; }
[ "$(field "$WORK/edit-comment.log" "$EDITED" anchor_replayed)" = 0 ] \
  || { echo "FAIL: comment-only edit took the anchor path instead of the fast path" >&2; exit 1; }
check_untouched "$WORK/edit-comment.log" comment-only
diff -q "$WORK/cold-docs/$EDITED.jsonl" "$WORK/state/runs/$EDITED.jsonl" >/dev/null \
  || { echo "FAIL: comment-only edit changed the $EDITED document" >&2; exit 1; }

if [ "$EDITED" = ecommerce ]; then
  echo "== edit matrix b: one-function body edit (charge_payment, + 0) =="
  sed -i 's/total = price \* qty$/total = price * qty + 0/' "$WORK/src/$EDITED.py"
  grep -q 'price \* qty + 0' "$WORK/src/$EDITED.py" \
    || { echo "FAIL: body-edit sed target not found in $EDITED" >&2; exit 1; }
  in_fn=$("$NFI" campaign plan --file "$WORK/src/$EDITED.py" --as "$EDITED" 2>/dev/null \
    | grep -c '"function":"charge_payment"')
  "$NFI" campaign run --state-dir "$WORK/state" --threads 2 "${FILES[@]}" | tee "$WORK/edit-body.log"
  units=$(field "$WORK/edit-body.log" "$EDITED" units)
  executed=$(field "$WORK/edit-body.log" "$EDITED" executed)
  anchored=$(field "$WORK/edit-body.log" "$EDITED" anchor_replayed)
  [ "$in_fn" -gt 0 ] && [ "$executed" = "$in_fn" ] \
    || { echo "FAIL: body edit executed $executed units, expected charge_payment's $in_fn" >&2; exit 1; }
  [ "$anchored" = "$((units - in_fn))" ] \
    || { echo "FAIL: body edit anchor-replayed $anchored of $units units, expected $((units - in_fn))" >&2; exit 1; }
  check_untouched "$WORK/edit-body.log" body
  check_scratch_parity "$WORK/scratch-body" body
else
  echo "== edit matrix b: skipped (body-edit target is ecommerce-specific, first program is $EDITED) =="
fi

echo "== edit matrix c: add an uncalled function to $EDITED =="
before=$("$NFI" campaign plan --file "$WORK/src/$EDITED.py" --as "$EDITED" 2>&1 >/dev/null \
  | sed -n 's/^planned \([0-9]*\) units.*/\1/p')
printf 'def parity_probe(x):\n    y = x + 1\n    return y\n' >> "$WORK/src/$EDITED.py"
"$NFI" campaign run --state-dir "$WORK/state" --threads 2 "${FILES[@]}" | tee "$WORK/edit-add.log"
units=$(field "$WORK/edit-add.log" "$EDITED" units)
executed=$(field "$WORK/edit-add.log" "$EDITED" executed)
replayed=$(field "$WORK/edit-add.log" "$EDITED" replayed)
[ "$units" -gt "$before" ] \
  || { echo "FAIL: added function produced no new units ($before -> $units)" >&2; exit 1; }
[ "$executed" = "$((units - before))" ] \
  || { echo "FAIL: added function executed $executed units, expected the $((units - before)) new ones" >&2; exit 1; }
[ "$replayed" = "$before" ] \
  || { echo "FAIL: added function replayed $replayed units, expected all $before pre-existing" >&2; exit 1; }
check_untouched "$WORK/edit-add.log" added-function
check_scratch_parity "$WORK/scratch-add" added-function

echo "incremental parity: warm run executed 0 units; edit matrix (comment / body / added function) re-executed only changed anchor groups; all documents byte-identical to from-scratch runs"
