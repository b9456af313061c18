#!/usr/bin/env bash
# Tier-2 JSON well-formedness: every observability artifact the analyzer
# writes (--metrics-out, --trace-out, --ledger-out, in single-run,
# octagon, and batch mode) must survive a strict JSON parse, trace
# events must carry the chrome://tracing required fields, and the alarm
# provenance surface must produce a non-empty slice for the known alarm
# in examples/pointers.spa.
#
#   json_roundtrip.sh <spa-analyze> <examples-dir> [spa-postmortem] \
#                     [spa-metrics-diff]
#
# With the optional tool paths, the postmortem produced by fault
# injection is additionally rendered by spa-postmortem and accepted by
# spa-metrics-diff (stable sections only).
#
# Exit 77 = skip (instrumentation compiled out with SPA_OBS=OFF).
set -u

ANALYZE=$1
EXAMPLES=$2
POSTMORTEM=${3:-}
METRICSDIFF=${4:-}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if ! "$ANALYZE" --stats "$EXAMPLES/loop.spa" | grep -q '='; then
  echo "metrics compiled out (SPA_OBS=OFF); skipping"
  exit 77
fi

# Strict parse: json.load rejects trailing garbage, unquoted keys, NaN
# by default would pass — but the exporters never emit non-finite
# numbers, which the parse_constant hook pins.
strict_json() {
  python3 - "$1" <<'EOF'
import json, sys
def no_const(value):
    raise ValueError("non-finite number in JSON: " + value)
json.load(open(sys.argv[1]), parse_constant=no_const)
EOF
}

# 1. Single interval run: all three artifacts at once.
"$ANALYZE" --check --stats \
  --metrics-out="$WORK/m.json" --trace-out="$WORK/t.json" \
  --ledger-out="$WORK/l.json" "$EXAMPLES/pointers.spa" \
  > "$WORK/stdout.txt" || exit 1
for f in m t l; do
  strict_json "$WORK/$f.json" || { echo "FAIL: $f.json malformed"; exit 1; }
done

# Every trace event needs the chrome://tracing required fields.  Spans
# are complete 'X' events carrying a duration and the span/parent ids.
python3 - "$WORK/t.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["traceId"], "trace document has no trace id"
assert doc["epochNanos"] >= 0, "trace document has no epoch"
events = doc["traceEvents"]
assert events, "trace has no events"
for e in events:
    for field in ("ph", "ts", "dur", "pid", "tid", "name"):
        assert field in e, "trace event missing %r: %r" % (field, e)
    assert e["ph"] == "X", "unexpected phase %r" % e["ph"]
    assert e["ts"] >= 0 and e["dur"] >= 0, "negative timestamp: %r" % e
    assert e["args"]["id"] != "0x0", "span without an id: %r" % e
EOF

# The ledger document: schema marker, totals consistent with the
# per-function rollup, and a provenance slice for the known alarm.
python3 - "$WORK/l.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spa-ledger-v1", doc.get("schema")
assert doc["totals"]["visits"] > 0, "empty ledger on pointers.spa"
per_func = sum(f["visits"] for f in doc["functions"])
assert per_func == doc["totals"]["visits"], \
    "function rollup %d != totals %d" % (per_func, doc["totals"]["visits"])
per_comp = sum(c["visits"] for c in doc["partitions"])
assert per_comp == doc["totals"]["visits"], \
    "partition rollup %d != totals %d" % (per_comp, doc["totals"]["visits"])
assert doc["hotspots"], "no hotspots despite nonzero totals"
prov = doc.get("provenance", [])
assert prov, "pointers.spa alarm produced no provenance slice"
assert prov[0]["slice"], "provenance slice is empty"
EOF

# 2. --explain-alarm: a non-empty human-readable slice for alarm #0, and
# a clean error (not a crash) for an alarm id that does not exist.
"$ANALYZE" --explain-alarm=0 "$EXAMPLES/pointers.spa" \
  > "$WORK/explain.txt" || exit 1
grep -q "alarm #0" "$WORK/explain.txt" || {
  echo "FAIL: --explain-alarm=0 did not describe alarm #0"
  exit 1
}
grep -q "d0" "$WORK/explain.txt" || {
  echo "FAIL: --explain-alarm slice has no depth-0 seed line"
  exit 1
}
if "$ANALYZE" --explain-alarm=99 "$EXAMPLES/pointers.spa" \
    > "$WORK/explain-bad.txt" 2>&1; then
  echo "FAIL: --explain-alarm=99 should fail on a 1-alarm program"
  exit 1
fi

# 3. Octagon run: the ledger JSON stays well-formed with the pack-space
# labels.  (--check needs --domain=interval; bench_smoke.sh pins that.)
"$ANALYZE" --domain=octagon --ledger-out="$WORK/lo.json" \
  "$EXAMPLES/pointers.spa" > /dev/null || exit 1
strict_json "$WORK/lo.json" || { echo "FAIL: octagon ledger malformed"; exit 1; }

# 4. Batch mode: the per-item ledger rollup document.
cat > "$WORK/batch.txt" <<EOF2
$EXAMPLES/loop.spa
$EXAMPLES/pointers.spa
EOF2
"$ANALYZE" --batch="$WORK/batch.txt" --check \
  --metrics-out="$WORK/bm.json" --ledger-out="$WORK/bl.json" \
  > /dev/null || exit 1
strict_json "$WORK/bm.json" || { echo "FAIL: batch metrics malformed"; exit 1; }
python3 - "$WORK/bl.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spa-batch-ledger-v1", doc.get("schema")
assert len(doc["items"]) == 2, doc["items"]
for item in doc["items"]:
    assert item["outcome"] == "ok", item
    assert item["visits"] > 0, item
EOF

# 5. Batch gauge scoping: per-run gauges must not leak into the batch
# metrics snapshot (they are zeroed before export; batch.* gauges and
# accumulated counters remain).
python3 - "$WORK/bm.json" <<'EOF' || exit 1
import json, sys
m = json.load(open(sys.argv[1]))
assert m.get("program.points", 0) == 0, "per-run gauge leaked into batch"
assert m.get("analysis.degraded", 0) == 0, "per-run gauge leaked into batch"
assert m["batch.programs"] == 2
assert m["fixpoint.visits"] > 0
EOF

# 5b. Distributed tracing: a sharded batch merges every worker's spans
# into one Chrome trace — spans from the coordinator AND each forked
# worker pid on one timeline, with dispatch spans parenting the workers'
# analyze spans.
"$ANALYZE" --batch="$WORK/batch.txt" --shards=2 \
  --trace-out="$WORK/ts.json" > /dev/null || exit 1
strict_json "$WORK/ts.json" || { echo "FAIL: shard trace malformed"; exit 1; }
python3 - "$WORK/ts.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "sharded trace has no events"
pids = {e["pid"] for e in events}
assert len(pids) >= 3, "want coordinator + 2 worker pids, got %r" % pids
ids = {}
for e in events:
    assert e["ph"] == "X", e
    assert e["ts"] >= 0 and e["dur"] >= 0, "negative time in %r" % e
    span = int(e["args"]["id"], 16)
    assert span not in ids, "duplicate span id %#x" % span
    ids[span] = e
names = [e["name"] for e in events]
assert any(n == "shard.run" for n in names), names
assert any(n.startswith("shard.analyze:") for n in names), names
assert any(n.startswith("shard.dispatch:") or n.startswith("shard.steal:")
           for n in names), names
# Parent/child nesting across the process boundary: at least one worker
# analyze span must resolve its parent to a coordinator dispatch span.
nested = 0
for e in events:
    if not e["name"].startswith("shard.analyze:"):
        continue
    parent = ids.get(int(e["args"]["parent"], 16))
    assert parent is not None, "dangling parent in %r" % e
    assert parent["pid"] != e["pid"], \
        "analyze span should parent to the coordinator: %r" % e
    nested += 1
assert nested >= 1, "no cross-process parent/child nesting"
# Deterministic content order: (ts, pid, span id) ascending.
keys = [(e["ts"], e["pid"], int(e["args"]["id"], 16)) for e in events]
assert keys == sorted(keys), "trace events are not in merge order"
EOF

# 6. --journal-out: the flight-recorder dump of a run that survived.
"$ANALYZE" --journal-out="$WORK/j.json" "$EXAMPLES/loop.spa" \
  > /dev/null || exit 1
strict_json "$WORK/j.json" || { echo "FAIL: journal malformed"; exit 1; }
python3 - "$WORK/j.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spa-journal-v1", doc.get("schema")
assert doc["epoch_ns"] >= 0, "journal header lost the shared epoch"
assert doc["threads"], "no journaled threads in an instrumented run"
kinds = {e["kind"] for t in doc["threads"] for e in t["events"]}
assert "phase.begin" in kinds, kinds
assert "partition.end" in kinds, kinds
EOF

# 7. Crash postmortem via fault injection: a shard worker that aborts
# mid-fixpoint must leave a strict-parseable spa-postmortem-v1 file
# behind, the batch must still classify and exit 2, and the
# pretty-printer / differ must both consume the artifact.  --isolate and
# --shards=2 run on the same executor; both must hold.
for mode in --isolate --shards=2; do
  rm -rf "$WORK/pm"
  mkdir -p "$WORK/pm"
  SPA_FAULT='crash@fix:loop' "$ANALYZE" --batch="$WORK/batch.txt" $mode \
    --postmortem-dir="$WORK/pm" > "$WORK/pm-stdout.txt" 2>&1
  rc=$?
  if [ $rc -ne 2 ]; then
    echo "FAIL: $mode batch with a crashed item exited $rc, want 2"
    cat "$WORK/pm-stdout.txt"
    exit 1
  fi
  PM=$(ls "$WORK"/pm/*.pm.json 2>/dev/null | head -n1)
  [ -n "$PM" ] || { echo "FAIL: $mode wrote no postmortem file"; exit 1; }
  strict_json "$PM" || { echo "FAIL: $mode postmortem malformed"; exit 1; }
  python3 - "$PM" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spa-postmortem-v1", doc.get("schema")
assert doc["reason"] == "signal", doc.get("reason")
assert doc["signal"] == 6, doc.get("signal")  # abort = SIGABRT
assert doc["threads"], "postmortem carries no journal tails"
assert any(e["kind"] == "fault.arm"
           for t in doc["threads"] for e in t["events"]), \
    "armed fault missing from the journal tail"
EOF
done

if [ -n "$POSTMORTEM" ]; then
  "$POSTMORTEM" --counters "$PM" > "$WORK/pm-render.txt" || {
    echo "FAIL: spa-postmortem could not render $PM"; exit 1; }
  grep -q "died: signal 6" "$WORK/pm-render.txt" || {
    echo "FAIL: spa-postmortem render is missing the verdict line"; exit 1; }
  grep -q "timeline" "$WORK/pm-render.txt" || {
    echo "FAIL: spa-postmortem render has no merged timeline"; exit 1; }
  "$POSTMORTEM" "$WORK/j.json" > /dev/null || {
    echo "FAIL: spa-postmortem could not render the journal dump"; exit 1; }
fi

if [ -n "$METRICSDIFF" ]; then
  # Self-diff of a postmortem: the differ flattens only the stable
  # sections (counters/gauges/ledger_rollup/heartbeat_total), so this
  # must pass cleanly rather than tripping over the event rings.
  "$METRICSDIFF" "$PM" "$PM" > "$WORK/pm-diff.txt" || {
    echo "FAIL: spa-metrics-diff rejected postmortem input"; exit 1; }
  grep -q "0 regressions" "$WORK/pm-diff.txt" || {
    echo "FAIL: postmortem self-diff reported regressions"; exit 1; }
fi

echo "json roundtrip OK"
