#!/usr/bin/env bash
# Tier-2 metrics regression gate: spa-metrics-diff against the
# checked-in cost-ledger baseline for examples/pointers.spa.
#
#   metrics_regression.sh <spa-analyze> <spa-metrics-diff> <examples-dir> \
#       <baseline.json> <spa-serve> <serve-baseline.json>
#
# Three contracts:
#   1. baseline-vs-current passes on the deterministic count keys (the
#      ledger counts are a pure function of program + options, so a
#      tolerance-0.10 gate holds on any machine);
#   2. current-vs-itself passes over *every* key (including sampled
#      times);
#   3. a perturbed copy fails with the regression exit code (2).
#
# The serve.* keys ride the same three contracts through a live daemon
# (one cold + one warm request on examples/pointers.spa).
#
# Exit 77 = skip (instrumentation compiled out with SPA_OBS=OFF).
set -u

ANALYZE=$1
DIFF=$2
EXAMPLES=$3
BASELINE=$4
SERVE=$5
SERVE_BASELINE=$6
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if ! "$ANALYZE" --stats "$EXAMPLES/loop.spa" | grep -q '='; then
  echo "metrics compiled out (SPA_OBS=OFF); skipping"
  exit 77
fi

"$ANALYZE" --check --ledger-out="$WORK/cur.json" \
  "$EXAMPLES/pointers.spa" > /dev/null || exit 1

# 1. The deterministic-count gate against the checked-in baseline.
"$DIFF" --rel-tol=0.10 \
  --key=nodes \
  --key=totals.visits \
  --key=totals.widenings \
  --key=totals.narrowings \
  --key=totals.joins \
  --key=totals.no_change_skips \
  --key=totals.deliveries \
  --key=totals.growth \
  --key=totals.score \
  "$BASELINE" "$WORK/cur.json" || {
  echo "FAIL: ledger counts regressed against $BASELINE"
  exit 1
}

# 2. Self-comparison over every key must always pass.
"$DIFF" "$WORK/cur.json" "$WORK/cur.json" || {
  echo "FAIL: self-diff reported a regression"
  exit 1
}

# 3. A perturbed copy must fail with exit code 2, on exactly the
# perturbed keys.
python3 - "$WORK/cur.json" "$WORK/bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["totals"]["visits"] = int(doc["totals"]["visits"] * 3)
doc["totals"]["growth"] = int(doc["totals"]["growth"] * 3) + 10
json.dump(doc, open(sys.argv[2], "w"))
EOF
"$DIFF" --key=totals.visits --key=totals.growth \
  "$WORK/cur.json" "$WORK/bad.json" > "$WORK/bad.txt" 2>&1
RC=$?
if [ "$RC" -ne 2 ]; then
  cat "$WORK/bad.txt"
  echo "FAIL: perturbed diff exited $RC, want 2"
  exit 1
fi
grep -q "2 regressions" "$WORK/bad.txt" || {
  cat "$WORK/bad.txt"
  echo "FAIL: perturbed diff should flag exactly the 2 perturbed keys"
  exit 1
}

# The octagon closure counter rides the same contract: a self-diff over
# oct.closures passes, and a perturbed copy (simulating a closure-cost
# regression) fails with exit code 2.
"$ANALYZE" --domain=octagon --metrics-out="$WORK/oct.json" \
  "$EXAMPLES/pointers.spa" > /dev/null || exit 1
python3 - "$WORK/oct.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc.get("oct.closures", 0) > 0, "octagon metrics lack oct.closures"
EOF
"$DIFF" --key=oct.closures "$WORK/oct.json" "$WORK/oct.json" || {
  echo "FAIL: oct.closures self-diff reported a regression"
  exit 1
}
python3 - "$WORK/oct.json" "$WORK/oct-bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["oct.closures"] = doc["oct.closures"] * 3 + 10
json.dump(doc, open(sys.argv[2], "w"))
EOF
"$DIFF" --key=oct.closures "$WORK/oct.json" "$WORK/oct-bad.json" \
  > /dev/null 2>&1
if [ $? -ne 2 ]; then
  echo "FAIL: perturbed oct.closures should exit 2"
  exit 1
fi

# Snapshot metrics ride the same contract: encoding is deterministic
# (same program -> byte-identical file, identical snapshot.* gauges),
# and a perturbed save.bytes (simulating format bloat) fails with the
# regression exit code.
"$ANALYZE" --snapshot-out="$WORK/a.snap" \
  --metrics-out="$WORK/snap-a.json" "$EXAMPLES/pointers.spa" \
  > /dev/null || exit 1
"$ANALYZE" --snapshot-out="$WORK/b.snap" \
  --metrics-out="$WORK/snap-b.json" "$EXAMPLES/pointers.spa" \
  > /dev/null || exit 1
cmp -s "$WORK/a.snap" "$WORK/b.snap" || {
  echo "FAIL: snapshot encoding is not deterministic"
  exit 1
}
for key in snapshot.saves snapshot.save.bytes; do
  grep -q "\"$key\"" "$WORK/snap-a.json" || {
    echo "FAIL: snapshot metrics lack $key"
    exit 1
  }
done
"$DIFF" --key=snapshot.saves --key=snapshot.save.bytes \
  "$WORK/snap-a.json" "$WORK/snap-b.json" || {
  echo "FAIL: snapshot.* metrics differ across identical saves"
  exit 1
}
python3 - "$WORK/snap-a.json" "$WORK/snap-bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["snapshot.save.bytes"] = doc["snapshot.save.bytes"] * 2 + 64
json.dump(doc, open(sys.argv[2], "w"))
EOF
"$DIFF" --key=snapshot.save.bytes "$WORK/snap-a.json" \
  "$WORK/snap-bad.json" > /dev/null 2>&1
if [ $? -ne 2 ]; then
  echo "FAIL: perturbed snapshot.save.bytes should exit 2"
  exit 1
fi

# The resident daemon's serve.* keys ride the same contract.  A fixed
# request sequence (cold then warm on pointers.spa) makes every count —
# requests, hits/misses, partition totals — a pure function of program
# + options, so the warm request's metrics gate at tolerance zero
# against the checked-in baseline.  serve.request.seconds and
# serve.cache.bytes are deliberately outside the gate (wall time and
# container-overhead estimates are machine-dependent).
SOCK="$WORK/daemon.sock"
"$SERVE" --socket="$SOCK" 2> "$WORK/serve.log" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2> /dev/null; rm -rf "$WORK"' EXIT
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || {
  cat "$WORK/serve.log"
  echo "FAIL: spa-serve socket never appeared"
  exit 1
}
"$ANALYZE" --connect="$SOCK" "$EXAMPLES/pointers.spa" > /dev/null || {
  echo "FAIL: cold serve request"
  exit 1
}
"$ANALYZE" --connect="$SOCK" --metrics-out="$WORK/serve-warm.json" \
  "$EXAMPLES/pointers.spa" > /dev/null || {
  echo "FAIL: warm serve request"
  exit 1
}
# The telemetry.* keys ride the same determinism contract: one bounded
# subscription of exactly two frames makes telemetry.subscribes and
# telemetry.frames pure functions of the request sequence.
"$ANALYZE" --connect="$SOCK" --serve-watch=2 --watch-ms=10 \
  > "$WORK/watch.txt" || {
  echo "FAIL: telemetry subscription"
  exit 1
}
"$ANALYZE" --connect="$SOCK" --serve-stats > "$WORK/serve-stats.json" || {
  echo "FAIL: serve stats request"
  exit 1
}
"$ANALYZE" --connect="$SOCK" --serve-shutdown > /dev/null
wait "$SERVER_PID" || {
  cat "$WORK/serve.log"
  echo "FAIL: daemon exited non-zero"
  exit 1
}
SERVER_PID=
for key in serve.requests serve.cache.hits serve.cache.misses \
  serve.partitions.total serve.partitions.reused serve.request.seconds; do
  grep -q "\"$key\"" "$WORK/serve-warm.json" || {
    echo "FAIL: serve metrics lack $key"
    exit 1
  }
done
"$DIFF" \
  --key=serve.requests \
  --key=serve.cache.hits \
  --key=serve.cache.misses \
  --key=serve.cache.entries \
  --key=serve.partitions.total \
  --key=serve.partitions.reused \
  --key=trace.spans \
  "$SERVE_BASELINE" "$WORK/serve-warm.json" || {
  echo "FAIL: serve counts regressed against $SERVE_BASELINE"
  exit 1
}
# The daemon's cumulative stats document after the fixed sequence: one
# subscription, two telemetry frames, and a nonzero span count (the
# request-scoped tracer is always on in the daemon).
python3 - "$WORK/serve-stats.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spa-serve-stats-v1", doc.get("schema")
m = doc["metrics"]
assert m["telemetry.subscribes"] == 1, m.get("telemetry.subscribes")
assert m["telemetry.frames"] == 2, m.get("telemetry.frames")
assert m["trace.spans"] > 0, m.get("trace.spans")
EOF
"$DIFF" --key=metrics.telemetry.frames --key=metrics.telemetry.subscribes \
  --key=metrics.trace.spans \
  "$WORK/serve-stats.json" "$WORK/serve-stats.json" || {
  echo "FAIL: telemetry self-diff reported a regression"
  exit 1
}
python3 - "$WORK/serve-stats.json" "$WORK/serve-stats-bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["metrics"]["telemetry.frames"] = doc["metrics"]["telemetry.frames"] + 7
json.dump(doc, open(sys.argv[2], "w"))
EOF
"$DIFF" --key=metrics.telemetry.frames "$WORK/serve-stats.json" \
  "$WORK/serve-stats-bad.json" > /dev/null 2>&1
if [ $? -ne 2 ]; then
  echo "FAIL: perturbed telemetry.frames should exit 2"
  exit 1
fi
"$DIFF" "$WORK/serve-warm.json" "$WORK/serve-warm.json" || {
  echo "FAIL: serve self-diff reported a regression"
  exit 1
}
python3 - "$WORK/serve-warm.json" "$WORK/serve-bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["serve.cache.hits"] = doc["serve.cache.hits"] + 5
json.dump(doc, open(sys.argv[2], "w"))
EOF
"$DIFF" --key=serve.cache.hits "$WORK/serve-warm.json" \
  "$WORK/serve-bad.json" > /dev/null 2>&1
if [ $? -ne 2 ]; then
  echo "FAIL: perturbed serve.cache.hits should exit 2"
  exit 1
fi

# A missing key is an error unless --allow-missing.
python3 - "$WORK/cur.json" "$WORK/missing.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
del doc["totals"]
json.dump(doc, open(sys.argv[2], "w"))
EOF
if "$DIFF" --key=totals.visits "$WORK/cur.json" "$WORK/missing.json" \
    > /dev/null 2>&1; then
  echo "FAIL: missing key should fail without --allow-missing"
  exit 1
fi
"$DIFF" --allow-missing --key=totals.visits \
  "$WORK/cur.json" "$WORK/missing.json" > /dev/null || {
  echo "FAIL: --allow-missing should tolerate the absent key"
  exit 1
}

echo "metrics regression gate OK"
