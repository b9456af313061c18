#!/usr/bin/env bash
# Tier-2 bench smoke: end-to-end check that the observability outputs
# carry the metric keys the docs promise.
#
#   bench_smoke.sh <spa-analyze> <spa-bench-report> <table2_interval> <examples-dir>
#
# Exit 77 = skip (instrumentation compiled out with SPA_OBS=OFF).
set -u

ANALYZE=$1
REPORT=$2
TABLE2=$3
EXAMPLES=$4
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if ! "$ANALYZE" --stats "$EXAMPLES/loop.spa" | grep -q '='; then
  echo "metrics compiled out (SPA_OBS=OFF); skipping"
  exit 77
fi

require_keys() {
  local file=$1
  shift
  for key in "$@"; do
    if ! grep -q "\"$key\"" "$file"; then
      echo "FAIL: $file is missing metric $key"
      exit 1
    fi
  done
}

for ex in loop pointers; do
  "$ANALYZE" --domain=interval --metrics-out="$WORK/$ex-i.json" \
    --trace-out="$WORK/$ex-i-trace.json" "$EXAMPLES/$ex.spa" \
    > /dev/null || exit 1
  require_keys "$WORK/$ex-i.json" \
    phase.pre.seconds phase.defuse.seconds phase.depbuild.seconds \
    phase.depbuild.ssa.seconds phase.depbuild.link.seconds \
    phase.depbuild.bypass.seconds phase.depbuild.storage.seconds \
    phase.fix.seconds phase.total.seconds fixpoint.worklist.pops \
    fixpoint.visits fixpoint.extracted fixpoint.edges_walked \
    fixpoint.slots depgraph.edges depgraph.nodes depgraph.phis depgraph.phis_dropped \
    program.points \
    program.locs mem.peak_rss_kib value.pool.nodes value.pool.hit_rate \
    state.cow.detaches
  if ! grep -q '"traceEvents"' "$WORK/$ex-i-trace.json"; then
    echo "FAIL: $ex trace output lacks traceEvents"
    exit 1
  fi

  "$ANALYZE" --domain=octagon --metrics-out="$WORK/$ex-o.json" \
    "$EXAMPLES/$ex.spa" > /dev/null || exit 1
  require_keys "$WORK/$ex-o.json" \
    phase.total.seconds oct.closures oct.packs fixpoint.worklist.pops \
    fixpoint.extracted fixpoint.edges_walked fixpoint.slots mem.peak_rss_kib
done

# The octagon run must actually have closed DBMs.
python3 - "$WORK/loop-o.json" <<'EOF' || exit 1
import json, sys
m = json.load(open(sys.argv[1]))
assert m["oct.closures"] > 0, "octagon run recorded no closures"
EOF

# Budget smoke: an expired deadline must degrade (exit 3, sound-but-
# coarse banner) and the metrics file must carry the budget.* keys and
# the degradation provenance gauge (docs/ROBUSTNESS.md).
"$ANALYZE" --deadline=-1 --metrics-out="$WORK/loop-budget.json" \
  "$EXAMPLES/loop.spa" > "$WORK/loop-budget.txt"
if [ $? -ne 3 ]; then
  echo "FAIL: expired deadline should exit 3 (degraded)"
  exit 1
fi
grep -q "degraded" "$WORK/loop-budget.txt" || {
  echo "FAIL: degraded run lacks the degraded banner"
  exit 1
}
require_keys "$WORK/loop-budget.json" \
  budget.steps budget.exhausted analysis.degraded
# The octagon facade reports its budget the same way: exit 3, a banner
# that names the limit, and the budget.stops.* counter.
"$ANALYZE" --domain=octagon --deadline=-1 \
  --metrics-out="$WORK/loop-oct-budget.json" "$EXAMPLES/loop.spa" \
  > "$WORK/loop-oct-budget.txt"
if [ $? -ne 3 ]; then
  echo "FAIL: octagon run with an expired deadline should exit 3"
  exit 1
fi
grep -q "degraded.*deadline" "$WORK/loop-oct-budget.txt" || {
  echo "FAIL: octagon degraded banner does not name the deadline"
  exit 1
}
require_keys "$WORK/loop-oct-budget.json" \
  budget.steps budget.exhausted budget.stops.deadline analysis.degraded
# And a clean run must exit 0 with budgets armed but not tripped.
"$ANALYZE" --deadline=3600 --step-limit=1000000000 "$EXAMPLES/loop.spa" \
  > /dev/null || exit 1

# pointers.spa is the smallest example whose points-to/callee sets reach
# the pooling threshold (>= 3 ids): the interner must report real work.
python3 - "$WORK/pointers-i.json" <<'EOF' || exit 1
import json, sys
m = json.load(open(sys.argv[1]))
assert m["value.pool.nodes"] > 0, "interner never pooled on pointers.spa"
assert m["value.pool.misses"] > 0, "pool has nodes but no misses?"
EOF

# spa-ir-v1 snapshot pipeline: saving from source and reloading must
# export the snapshot.* keys and journal events; an isolated batch runs
# on the shard workers and, like a sharded one, exports the shard.*
# gauges (docs/OBSERVABILITY.md).
"$ANALYZE" --snapshot-out="$WORK/loop.snap" \
  --metrics-out="$WORK/snap-save.json" \
  --journal-out="$WORK/snap-save-journal.json" \
  "$EXAMPLES/loop.spa" > /dev/null || exit 1
require_keys "$WORK/snap-save.json" snapshot.saves snapshot.save.bytes
grep -q "snapshot.save" "$WORK/snap-save-journal.json" || {
  echo "FAIL: snapshot save left no journal event"
  exit 1
}
"$ANALYZE" --snapshot-in="$WORK/loop.snap" \
  --metrics-out="$WORK/snap-load.json" > /dev/null || exit 1
require_keys "$WORK/snap-load.json" snapshot.loads snapshot.load.bytes
# Absolute paths: the batch loader resolves relative entries against
# the list file's own directory, not the caller's cwd.
EXAMPLES_ABS=$(cd "$EXAMPLES" && pwd)
printf '%s\n' "$EXAMPLES_ABS/loop.spa" "$EXAMPLES_ABS/pointers.spa" \
  > "$WORK/batch.lst"
"$ANALYZE" --batch="$WORK/batch.lst" --isolate \
  --metrics-out="$WORK/batch-isolate.json" > /dev/null || exit 1
require_keys "$WORK/batch-isolate.json" \
  shard.workers shard.items shard.steals shard.deaths
"$ANALYZE" --batch="$WORK/batch.lst" --shards=2 \
  --metrics-out="$WORK/shard.json" > /dev/null || exit 1
require_keys "$WORK/shard.json" \
  shard.workers shard.items shard.steals shard.deaths

# Shard workers enforce the per-item kill limit (4 x deadline + 1 s) and
# match SPA_FAULT name filters against items: a hung loop.spa is killed,
# retried, and classified timeout, and the batch exits 2.
SPA_FAULT='timeout@fix:loop' "$ANALYZE" --batch="$WORK/batch.lst" \
  --shards=2 --deadline=1 > "$WORK/shard-timeout.txt" 2>&1
rc=$?
if [ $rc -ne 2 ]; then
  echo "FAIL: sharded batch with a hung item exited $rc, want 2"
  cat "$WORK/shard-timeout.txt"
  exit 1
fi
grep -q "loop.spa *timeout" "$WORK/shard-timeout.txt" || {
  echo "FAIL: hung loop.spa was not classified timeout"
  cat "$WORK/shard-timeout.txt"
  exit 1
}

# The checker reads the sparse engine's input buffers: a dense engine
# with --check or --explain-alarm is a usage error (exit 1) before any
# analysis, for one program and for a sharded batch alike.
for args in "--engine=base --check $EXAMPLES/loop.spa" \
  "--engine=vanilla --check $EXAMPLES/pointers.spa" \
  "--engine=base --explain-alarm=0 $EXAMPLES/loop.spa" \
  "--engine=vanilla --check --batch=$WORK/batch.lst --shards=2"; do
  "$ANALYZE" $args > "$WORK/dense-check.txt" 2>&1
  rc=$?
  if [ $rc -ne 1 ] || ! grep -q "engine=sparse" "$WORK/dense-check.txt"; then
    echo "FAIL: spa-analyze $args exited $rc, want 1 naming --engine=sparse"
    cat "$WORK/dense-check.txt"
    exit 1
  fi
done

# It reads interval block sizes, which an octagon run has none of, so
# the octagon domain with either spelling is a usage error too, naming
# the interval domain.
for args in "--domain=octagon --check $EXAMPLES/pointers.spa" \
  "--domain=octagon --explain-alarm=0 $EXAMPLES/pointers.spa"; do
  "$ANALYZE" $args > "$WORK/oct-check.txt" 2>&1
  rc=$?
  if [ $rc -ne 1 ] || ! grep -q "domain=interval" "$WORK/oct-check.txt"; then
    echo "FAIL: spa-analyze $args exited $rc, want 1 naming --domain=interval"
    cat "$WORK/oct-check.txt"
    exit 1
  fi
done

# An alarm id is a non-negative decimal number and nothing else.
for id in abc -1 1x; do
  "$ANALYZE" --explain-alarm="$id" "$EXAMPLES/pointers.spa" \
    > "$WORK/bad-id.txt" 2>&1
  rc=$?
  if [ $rc -ne 1 ]; then
    echo "FAIL: --explain-alarm=$id exited $rc, want 1"
    cat "$WORK/bad-id.txt"
    exit 1
  fi
done

# --check runs on the bypass-contracted graph (only --list and
# --no-bypass keep the full one): the contraction must remove edges.
"$ANALYZE" --check --metrics-out="$WORK/check.json" \
  "$EXAMPLES/pointers.spa" > /dev/null || exit 1
python3 - "$WORK/check.json" <<'EOF' || exit 1
import json, sys
m = json.load(open(sys.argv[1]))
assert m["depgraph.bypass_removed"] > 0, \
    "--check built the uncontracted dependency graph"
EOF

# Table 2 must append one JSON record per (benchmark, engine) cell.
SPA_SCALE=0.02 SPA_TIME_LIMIT=10 SPA_BENCH_JSON="$WORK/records.jsonl" \
  "$TABLE2" > /dev/null || exit 1
"$REPORT" --complete-cells \
  --require=phase.total.seconds,fixpoint.worklist.pops,mem.peak_rss_kib \
  "$WORK/records.jsonl" || exit 1

echo "bench smoke OK"
