#!/usr/bin/env bash
# Pipeline-parallelism baseline: runs the pipeline_scaling ablation with
# SPA_BENCH_JSON and distills the per-phase wall/cpu seconds of the
# sequential (--jobs=1) vs parallel (--jobs=N) configurations into one
# summary JSON.  pipeline_scaling runs each program 4 times per lane
# count; the record keeps, per program and lane count, the repetition
# with the smallest phase.total.seconds, so its sub-phase laps still sum
# to it.
#
#   bench_baseline.sh <pipeline_scaling> [out.json] [table2_interval] [table3_octagon]
#                     [checked-in.json spa-metrics-diff]
#
# When the table2_interval binary is passed, the Table 2 suite also runs
# (SPA_TABLE2_RUNS passes, best-of-N per program/engine) and the summary
# gains per-engine wall-time and peak-RSS columns plus a value-sharing
# comparison against the checked-in pre-interning baseline
# (bench/baseline_table2.jsonl).  When table3_octagon is also passed,
# the same per-engine seconds/peak-RSS columns are recorded for the
# Table 3 octagon suite (SPA_TABLE3_RUNS passes, default 1), whose
# cow_detaches column counts octagon matrix copies (oct.cow.detaches).
#
# The record's "counts" section holds, per program and in suite totals,
# the dependency-graph and fixpoint counts of the sequential runs
# (depgraph.nodes, .phis, .phis_dropped, .edges, fixpoint.visits).  They
# depend on the program alone, not on the host, so when a checked-in
# record and the spa-metrics-diff binary are passed, the fresh counts
# must not exceed the checked-in ones (tolerance 0): a count regression
# fails.  Seconds are recorded but not gated; they depend on the host.
#
# Environment: SPA_SCALE (suite scale, default 0.05 here — a baseline,
# not the paper-scale run), SPA_JOBS (parallel lane count; default all
# cores, floored at 2 so the parallel paths execute even on one core),
# SPA_TIME_LIMIT (table2 and table3 only: each run's kill limit, with its
# budget deadline at 95% of it), SPA_TABLE2_RUNS (default 1; acceptance
# runs use 4).
# Exit 77 = skip (metrics compiled out).
set -u

BENCH=$1
OUT=${2:-BENCH_pipeline.json}
TABLE2=${3:-}
TABLE3=${4:-}
GATE_BASELINE=${5:-}
METRICS_DIFF=${6:-}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

export SPA_SCALE=${SPA_SCALE:-0.05}
export SPA_BENCH_JSON="$WORK/records.jsonl"

"$BENCH" > "$WORK/table.txt" || { cat "$WORK/table.txt"; exit 1; }
cat "$WORK/table.txt"

if ! grep -q '"phase.total.seconds"' "$SPA_BENCH_JSON"; then
  echo "metrics compiled out (SPA_OBS=OFF); skipping"
  exit 77
fi

python3 - "$SPA_BENCH_JSON" "$OUT" <<'EOF'
import json, os, sys

records = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
phases = ["phase.pre.seconds", "phase.defuse.seconds",
          "phase.depbuild.seconds", "phase.depbuild.ssa.seconds",
          "phase.depbuild.link.seconds", "phase.depbuild.bypass.seconds",
          "phase.depbuild.storage.seconds", "phase.fix.seconds",
          "phase.total.seconds", "phase.total.cpu_seconds"]
counts = ["depgraph.nodes", "depgraph.phis", "depgraph.phis_dropped",
          "depgraph.edges", "fixpoint.visits"]

def best_runs(jobs):
    """program -> metrics of its fastest repetition at this lane count."""
    suffix = ":jobs" + jobs
    best = {}
    for r in records:
        name = r["bench"]
        if not name.endswith(suffix) or not name.startswith("pipeline:"):
            continue
        prog = name[len("pipeline:"):-len(suffix)]
        m = r["metrics"]
        if (prog not in best or m.get("phase.total.seconds", 0)
                < best[prog].get("phase.total.seconds", 0)):
            best[prog] = m
    return best

def config(jobs):
    progs = {}
    batch = {}
    for prog, m in best_runs(jobs).items():
        if prog == "batch":
            batch = {k[len("batch."):]: m[k] for k in m
                     if k.startswith("batch.")}
        else:
            progs[prog] = {p: m.get(p, 0) for p in phases}
            progs[prog]["par.fix.partitions"] = m.get("par.fix.partitions", 1)
    total = {p: round(sum(v[p] for v in progs.values()), 4)
             for p in phases}
    return {"programs": progs, "suite_totals": total, "batch": batch}

jobs_vals = sorted({r["bench"].rsplit(":jobs", 1)[1]
                    for r in records if ":jobs" in r["bench"]}, key=int)
seq, par = jobs_vals[0], jobs_vals[-1]
out = {
    "bench": "pipeline_scaling",
    "scale": float(os.environ.get("SPA_SCALE", "0.25")),
    "hardware_concurrency": os.cpu_count(),
    "sequential_jobs": int(seq),
    "parallel_jobs": int(par),
    "sequential": config(seq),
    "parallel": config(par),
}
# Counts do not depend on the lane count or the repetition; record the
# sequential runs'.
seq_counts = {prog: {c: int(m.get(c, 0)) for c in counts}
              for prog, m in best_runs(seq).items() if prog != "batch"}
out["counts"] = {
    "programs": seq_counts,
    "suite_totals": {c: sum(v[c] for v in seq_counts.values())
                     for c in counts},
}
s, p = (out["sequential"]["suite_totals"]["phase.total.seconds"],
        out["parallel"]["suite_totals"]["phase.total.seconds"])
out["suite_speedup"] = round(s / p, 3) if p > 0 else None

# Budget-guard overhead ablation (docs/ROBUSTNESS.md: guards <= 2% on
# the batch suite): whole-batch seconds with budgets disabled (null
# token) vs armed with generous never-tripping limits.
# Each configuration appears once per interleaved repetition; take the
# minimum (the noise-robust wall-clock estimator pipeline_scaling also
# prints).
guard = {}
for r in records:
    if r["bench"].startswith("guard:"):
        guard.setdefault(r["bench"][len("guard:"):], []).append(r["metrics"])
if "off" in guard and "on" in guard:
    off = min(m.get("batch.seconds", 0) for m in guard["off"])
    on = min(m.get("batch.seconds", 0) for m in guard["on"])
    off_cpu = min(m.get("batch.cpu_seconds", 0) for m in guard["off"])
    on_cpu = min(m.get("batch.cpu_seconds", 0) for m in guard["on"])
    out["budget_guard"] = {
        "seconds_disabled": round(off, 4),
        "seconds_enabled": round(on, 4),
        "overhead_pct": round(100.0 * (on - off) / off, 2) if off > 0
                        else None,
        "cpu_seconds_disabled": round(off_cpu, 4),
        "cpu_seconds_enabled": round(on_cpu, 4),
        "cpu_overhead_pct": round(100.0 * (on_cpu - off_cpu) / off_cpu, 2)
                            if off_cpu > 0 else None,
        "degraded": sum(m.get("batch.degraded", 0) for m in guard["on"]),
    }

# Resident-daemon memo-vs-cold ablation: byte-identical repeat requests
# answered from the serve cache's byte memo (no parse, no encode, no
# fixpoint) vs full re-analysis per request (the --no-incremental
# ablation).  The ratio is serve_memo_speedup (cold / memo): it times the
# repeat-request lookup, not re-analysis after an edit.
srv = {}
for r in records:
    if r["bench"].startswith("serve:"):
        srv.setdefault(r["bench"][len("serve:"):], []).append(r["metrics"])
if "cold" in srv and "warm" in srv:
    cold = min(m.get("batch.seconds", 0) for m in srv["cold"])
    memo = min(m.get("batch.seconds", 0) for m in srv["warm"])
    out["serve"] = {
        "seconds_cold": round(cold, 4),
        "seconds_memo": round(memo, 6),
    }
    out["serve_memo_speedup"] = round(cold / memo, 3) if memo > 0 else None

# Work-stealing shard coordinator gauges (one "shard" record per run).
shard = [r["metrics"] for r in records if r["bench"] == "shard"]
if shard:
    m = shard[-1]
    out["shard"] = {k[len("shard."):]: m[k] for k in sorted(m)
                    if k.startswith("shard.")}
    out["shard"]["seconds"] = round(m.get("batch.seconds", 0), 4)
json.dump(out, open(sys.argv[2], "w"), indent=2)
print("wrote", sys.argv[2])
EOF
STATUS=$?
[ $STATUS -ne 0 ] && exit $STATUS
[ -z "$TABLE2" ] && exit 0

# Table 2 suite: per-engine wall time and peak RSS (best-of-N; each
# engine runs in a forked child, so mem.peak_rss_kib and the
# value.pool.* exports are per-run).
RUNS=${SPA_TABLE2_RUNS:-1}
export SPA_BENCH_JSON="$WORK/table2.jsonl"
for _ in $(seq "$RUNS"); do
  "$TABLE2" > "$WORK/table2.txt" || { cat "$WORK/table2.txt"; exit 1; }
done
cat "$WORK/table2.txt"

# Table 3 (octagon) suite: same columns, no baseline comparison.
RUNS3=${SPA_TABLE3_RUNS:-1}
if [ -n "$TABLE3" ] && [ "$RUNS3" -gt 0 ]; then
  export SPA_BENCH_JSON="$WORK/table3.jsonl"
  for _ in $(seq "$RUNS3"); do
    "$TABLE3" > "$WORK/table3.txt" || { cat "$WORK/table3.txt"; exit 1; }
  done
  cat "$WORK/table3.txt"
fi

BASELINE=$(dirname "$0")/baseline_table2.jsonl
LEDGER_OUT=${OUT%.json}_ledger.json
python3 - "$WORK/table2.jsonl" "$OUT" "$BASELINE" "$RUNS" \
    "$WORK/table3.jsonl" "$RUNS3" "$LEDGER_OUT" <<'EOF'
import json, sys

def load(path):
    """(program, engine) -> best-of-N record: min seconds / min RSS."""
    best = {}
    for line in open(path):
        if not line.strip():
            continue
        r = json.loads(line)
        m = r["metrics"]
        key = (r["bench"], r["engine"])
        cur = best.setdefault(key, dict(m))
        cur["phase.total.seconds"] = min(cur["phase.total.seconds"],
                                         m["phase.total.seconds"])
        cur["mem.peak_rss_kib"] = min(cur["mem.peak_rss_kib"],
                                      m["mem.peak_rss_kib"])
    return best

def totals(best):
    t = {}
    for (_, engine), m in best.items():
        e = t.setdefault(engine, {"seconds": 0.0, "peak_rss_kib": 0})
        e["seconds"] = round(e["seconds"] + m["phase.total.seconds"], 4)
        e["peak_rss_kib"] += int(m["mem.peak_rss_kib"])
    return t

def columns(best, octagon=False):
    programs = {}
    for (prog, engine), m in sorted(best.items()):
        cell = programs.setdefault(prog, {})[engine] = {
            "seconds": round(m["phase.total.seconds"], 4),
            "peak_rss_kib": int(m["mem.peak_rss_kib"]),
            "pool_nodes": int(m.get("value.pool.nodes", 0)),
            "pool_hit_rate": round(m.get("value.pool.hit_rate", 0), 4),
        }
        if octagon:
            # Octagon matrices count their own copies and never adopt.
            cell["cow_detaches"] = int(m.get("oct.cow.detaches", 0))
        else:
            cell["cow_detaches"] = int(m.get("state.cow.detaches", 0))
            cell["cow_adoptions"] = int(m.get("state.cow.adoptions", 0))
    return programs

now = load(sys.argv[1])
out = json.load(open(sys.argv[2]))
now_tot = totals(now)
out["table2"] = {"runs": int(sys.argv[4]), "programs": columns(now),
                 "engine_totals": now_tot}
try:
    t3 = load(sys.argv[5])
    t3_tot = totals(t3)
    out["table3"] = {"runs": int(sys.argv[6]),
                     "programs": columns(t3, octagon=True),
                     "engine_totals": t3_tot}
except OSError:
    pass

try:
    base_tot = totals(load(sys.argv[3]))
except OSError:
    base_tot = None
if base_tot:
    suite = lambda t, k: sum(e[k] for e in t.values())
    b_rss, n_rss = suite(base_tot, "peak_rss_kib"), suite(now_tot, "peak_rss_kib")
    b_sec, n_sec = suite(base_tot, "seconds"), suite(now_tot, "seconds")
    out["value_sharing"] = {
        "baseline": base_tot,
        "current": now_tot,
        "suite_rss_reduction_pct":
            round(100.0 * (b_rss - n_rss) / b_rss, 2) if b_rss else None,
        "suite_speedup": round(b_sec / n_sec, 3) if n_sec else None,
        "per_engine_rss_reduction_pct": {
            e: round(100.0 * (base_tot[e]["peak_rss_kib"]
                              - now_tot[e]["peak_rss_kib"])
                     / base_tot[e]["peak_rss_kib"], 2)
            for e in now_tot if e in base_tot
            and base_tot[e]["peak_rss_kib"]},
    }
json.dump(out, open(sys.argv[2], "w"), indent=2)
print("amended", sys.argv[2], "with table2 +",
      "value_sharing" if base_tot else "no baseline")

# Cost-ledger summary for the Table 2 suite: per (program, engine) the
# ledger.* gauges each run exported plus the deterministic fixpoint
# counters.  A spa-metrics-diff input (docs/OBSERVABILITY.md "Regression
# diffing"): growth/visits/widenings are count fields, comparable across
# machines; time_micros is sampled and for local comparisons only.
ledger = {"schema": "spa-bench-ledger-v1", "suite": "table2",
          "programs": {}}
for (prog, engine), m in sorted(now.items()):
    ledger["programs"].setdefault(prog, {})[engine] = {
        "nodes": int(m.get("ledger.nodes", 0)),
        "partitions": int(m.get("ledger.partitions", 0)),
        "growth": int(m.get("ledger.growth", 0)),
        "time_micros": int(m.get("ledger.time_micros", 0)),
        "visits": int(m.get("fixpoint.visits", 0)),
        "widenings": int(m.get("fixpoint.widenings", 0)),
    }
ledger["totals"] = {
    k: sum(e[k] for p in ledger["programs"].values() for e in p.values())
    for k in ("growth", "visits", "widenings")}
json.dump(ledger, open(sys.argv[7], "w"), indent=2)
print("wrote", sys.argv[7])
EOF
STATUS=$?
[ $STATUS -ne 0 ] && exit $STATUS
[ -z "$GATE_BASELINE" ] && exit 0

# Count gate: the fresh counts against the checked-in record's.
python3 - "$GATE_BASELINE" "$WORK/counts-base.json" \
    "$OUT" "$WORK/counts-now.json" <<'EOF' || exit 1
import json, sys
for src, dst in ((sys.argv[1], sys.argv[2]), (sys.argv[3], sys.argv[4])):
    json.dump(json.load(open(src)).get("counts", {}), open(dst, "w"))
EOF
"$METRICS_DIFF" --rel-tol=0 "$WORK/counts-base.json" "$WORK/counts-now.json"
