#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload interval --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all          # every workload, one table
  python3 perfbench/run.py --smoke                 # tiny sizes, schema + oracle

The first call configures and builds perfbench/CMakeLists.txt (the
analyzer libraries, spa-serve and spa-perfbench) into $CARGO_TARGET_DIR, or
.bench_build when that is unset.  The last stdout line of a single-workload
run is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when the build fails, the run times out, the
output does not match BENCHMARK.json, or any operation failed its oracle.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["interval", "check-batch", "serve-edit", "octagon"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds spa-perfbench and spa-serve (incremental)."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs, "--target",
              "spa-perfbench", "spa-serve"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "spa-perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this trace mode."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(binary, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.relpath(os.path.join(build_dir(), "work"))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work] + (["--smoke"] if smoke else [])
    # A session of its own, so a timeout can stop spa-perfbench together
    # with the spa-serve daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3, []
    return proc.returncode, out.splitlines()


def check_result(lines, trace):
    """Parses the result line and checks it against BENCHMARK.json."""
    if not lines:
        return None, "no output"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys differ from the contract"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return None, f"metrics differ: missing {missing}, unexpected {extra}"
    if result["attempted"] < 1:
        return None, "no operation attempted"
    return result, ""


def run_one(binary, workload, seed, seconds, trace, smoke, quiet=False):
    code, lines = run_driver(binary, workload, seed, seconds, trace, smoke)
    result, problem = check_result(lines, trace)
    for line in lines[:-1] if result else lines:
        if not quiet:
            print(line)
    if result is None:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
        return None, code or 4
    return result, code


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   help="one of " + ", ".join(WORKLOADS) + ", or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: check schema and oracle on every "
                        "workload, both trace modes")
    a = p.parse_args()
    if a.workload != "all" and a.workload not in WORKLOADS:
        p.error("unknown workload " + a.workload)

    binary = build()

    if a.smoke:
        bad = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, code = run_one(binary, workload, a.seed, 0.5, trace,
                                       True, quiet=True)
                ok = result is not None and code == 0 and result["correct"]
                bad += not ok
                print(f"smoke {workload} trace={trace}: "
                      f"{'ok' if ok else 'FAILED'}")
        return 1 if bad else 0

    if a.workload != "all":
        result, code = run_one(binary, a.workload, a.seed, a.seconds,
                               a.trace, False)
        if result is None:
            return code
        print(json.dumps(result))
        return code

    worst = 0
    table = []
    for workload in WORKLOADS:
        print(f"## {workload}")
        result, code = run_one(binary, workload, a.seed, a.seconds, a.trace,
                               False)
        worst = worst or code
        if result is None:
            continue
        print(json.dumps(result))
        for name, m in result["metrics"].items():
            table.append((workload, name, m["value"], m["unit"]))
        table.append((workload, "ops_failed",
                      f"{result['failed']}/{result['attempted']}", "ops"))
    print("## all workloads")
    for workload, name, value, unit in table:
        print(f"{workload:<12} {name:<38} {value!s:>22} {unit}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
