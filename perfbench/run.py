#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bulk-accel|small-sw|open-mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. On first use it configures and
builds perfbench/ (a CMake package over ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. It then runs the benchmark binary and checks that the metrics it
printed are exactly the ones BENCHMARK.json names for this mode, with
the same units. The binary's own tables (value, unit and clock of every
metric) come first; the last line of standard output is the result:

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"lat_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones
and writes a Chrome trace-event file to .bench_out/. The exit code is 0
only when every output checked out.

The open-mix offered rate (perfbench/plan.h) and the latency limit
behind slo_frac (perfbench/main.cc) are constants of the binary.
Seed 90917 is held out: no tuning of the benchmark used it, so a claim
made on other seeds can be re-checked on it.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no nxsim sources (src/) next to perfbench/: nothing to build")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, out, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def expected_metrics(bench, trace):
    return {m["name"]: m for m in bench["per_layer" if trace else
                                        "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    binary = build()

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        sys.stdout.write(r.stdout)
        fail(f"benchmark exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    print("\n".join(lines[:-1]))

    want = expected_metrics(bench, args.trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if not NAME.fullmatch(name) or m["unit"] != want[name]["unit"]:
            fail(f"metric {name!r} ({m['unit']}) does not match "
                 f"BENCHMARK.json")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": got[n]["value"], "unit": got[n]["unit"]}
                    for n in want},
    }))
    return 0 if r.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
