#!/usr/bin/env bash
# Tier-2 Prometheus exposition validation: the --prom-out text rendered
# by spa-analyze must satisfy the Prometheus 0.0.4 text-format grammar —
# every sample belongs to a # HELP/# TYPE-declared family, counter names
# carry the _total suffix, histogram buckets are cumulative and
# monotone with a +Inf bucket equal to _count, and _sum/_count are
# present for every histogram.  The octagon run is used because it is
# the one that populates a real histogram (oct.pack.size).
#
#   prom_exposition.sh <spa-analyze> <examples-dir>
#
# Exit 77 = skip (instrumentation compiled out with SPA_OBS=OFF).
set -u

ANALYZE=$1
EXAMPLES=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if ! "$ANALYZE" --stats "$EXAMPLES/loop.spa" | grep -q '='; then
  echo "metrics compiled out (SPA_OBS=OFF); skipping"
  exit 77
fi

# The histogram-bearing run: octagon packing observes pack sizes.
"$ANALYZE" --domain=octagon --prom-out="$WORK/m.prom" \
  "$EXAMPLES/pointers.spa" > /dev/null || {
  echo "FAIL: --prom-out run failed"
  exit 1
}
[ -s "$WORK/m.prom" ] || { echo "FAIL: empty prom exposition"; exit 1; }

python3 - "$WORK/m.prom" <<'EOF' || exit 1
import re, sys

lines = open(sys.argv[1]).read().splitlines()
helps, types, samples = {}, {}, []
for ln in lines:
    if not ln:
        continue
    if ln.startswith("# HELP "):
        name = ln.split()[2]
        assert name not in helps, "duplicate HELP for %s" % name
        helps[name] = ln
        continue
    if ln.startswith("# TYPE "):
        _, _, name, kind = ln.split(None, 3)
        assert name not in types, "duplicate TYPE for %s" % name
        assert name in helps, "TYPE without preceding HELP: %s" % name
        assert kind in ("counter", "gauge", "histogram"), ln
        types[name] = kind
        continue
    assert not ln.startswith("#"), "unknown comment line: %r" % ln
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', ln)
    assert m, "unparseable sample line: %r" % ln
    samples.append((m.group(1), m.group(2) or "", float(m.group(3))))

assert samples, "exposition has no samples"
assert types, "exposition has no TYPE declarations"

def family_of(name):
    # A histogram's series drop the _bucket/_sum/_count suffix.
    for suffix in ("_bucket", "_sum", "_count"):
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            return base
    return name

hist = {}
for name, labels, value in samples:
    fam = family_of(name)
    assert fam in types, "sample for undeclared family: %s" % name
    assert fam.startswith("spa_"), "unprefixed family: %s" % fam
    assert value == value and value not in (float("inf"), float("-inf")), \
        "non-finite sample %s" % name
    kind = types[fam]
    if kind == "counter":
        assert fam.endswith("_total"), "counter without _total: %s" % fam
        assert value >= 0, "negative counter %s" % fam
        assert not labels, "unexpected labels on counter %s" % fam
    elif kind == "histogram":
        h = hist.setdefault(fam, {"buckets": [], "sum": None, "count": None})
        if name.endswith("_bucket"):
            m = re.match(r'^\{le="([^"]+)"\}$', labels)
            assert m, "bucket without le label: %r" % labels
            le = float("inf") if m.group(1) == "+Inf" else float(m.group(1))
            h["buckets"].append((le, value))
        elif name.endswith("_sum"):
            h["sum"] = value
        else:
            h["count"] = value

for fam, h in hist.items():
    assert h["buckets"], "histogram %s has no buckets" % fam
    assert h["sum"] is not None, "histogram %s lacks _sum" % fam
    assert h["count"] is not None, "histogram %s lacks _count" % fam
    les = [le for le, _ in h["buckets"]]
    assert les == sorted(les), "unsorted buckets in %s" % fam
    assert les[-1] == float("inf"), "histogram %s lacks +Inf bucket" % fam
    counts = [c for _, c in h["buckets"]]
    assert counts == sorted(counts), \
        "non-cumulative buckets in %s: %r" % (fam, counts)
    assert counts[-1] == h["count"], \
        "+Inf bucket %s != _count %s in %s" % (counts[-1], h["count"], fam)

assert any(k == "histogram" for k in types.values()), \
    "octagon run produced no histogram family"
assert "spa_fixpoint_visits_total" in types, \
    "core counter family missing from the exposition"
print("validated %d samples across %d families" % (len(samples), len(types)))
EOF

# The --stats text surface carries the histogram quantile leaves the
# exposition's buckets summarize.
"$ANALYZE" --domain=octagon --stats "$EXAMPLES/pointers.spa" \
  > "$WORK/stats.txt" || exit 1
for key in oct.pack.size.p50 oct.pack.size.p95 oct.pack.size.p99; do
  grep -q "^$key=" "$WORK/stats.txt" || {
    echo "FAIL: --stats lacks quantile leaf $key"
    exit 1
  }
done

echo "prom exposition OK"
