#!/bin/sh
# Proves the continuous-benchmark pipeline end to end: a synthetic,
# deterministic slowdown proportional to the output (an N-iteration spin
# per emitted character, planted by bench_engine_batch --spin-digit-loop
# around every timed conversion; the library carries no hook for it)
# MUST trip bench_check.py's --history trend gate.  If the planted
# regression sails through, the gate is decorative and this script exits
# nonzero.
#
#   tools/ci_regression_selftest.sh [build-dir] [count] [spin]
#
# Three clean quick runs seed a temporary history (the trend gate wants a
# median to compare against), a fourth run carries the spin, and
# bench_check.py is asserted to pass on the clean history and fail once
# the spun run lands.
set -eu

BUILD="${1:-build}"
COUNT="${2:-10000}"
SPIN="${3:-150}"
BENCH="$BUILD/bench/bench_engine_batch"
CHECK="$(dirname "$0")/bench_check.py"
TMP="${TMPDIR:-/tmp}/ci_regression_selftest.$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

echo "ci_regression_selftest: seeding 3 clean runs (count $COUNT)"
for I in 1 2 3; do
  DRAGON4_BENCH_QUICK=1 "$BENCH" "$TMP/run$I.json" "$COUNT" \
      --bench-history="$TMP/history.jsonl" >/dev/null
done

echo "ci_regression_selftest: clean history must pass the gate"
if ! python3 "$CHECK" --history="$TMP/history.jsonl" \
    --bench=bench_engine_batch; then
  echo "ci_regression_selftest: FAIL: gate rejected a clean history" >&2
  exit 1
fi

echo "ci_regression_selftest: injecting --spin-digit-loop=$SPIN"
DRAGON4_BENCH_QUICK=1 "$BENCH" "$TMP/spun.json" "$COUNT" \
    --spin-digit-loop="$SPIN" \
    --bench-history="$TMP/history.jsonl" >/dev/null

echo "ci_regression_selftest: spun history must FAIL the gate"
if python3 "$CHECK" --history="$TMP/history.jsonl" \
    --bench=bench_engine_batch; then
  echo "ci_regression_selftest: FAIL: the planted regression" \
       "was not detected" >&2
  exit 1
fi

echo "ci_regression_selftest: OK (planted regression detected)"
