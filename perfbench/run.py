#!/usr/bin/env python3
"""Build and run one perfbench workload, or smoke-test every workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rmat16-base --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (which compiles the library
from ../src) into $CARGO_TARGET_DIR, or .bench_build when that is unset.
The workload's last stdout line is one JSON object: correct, attempted,
failed and metrics ({name: {value, unit}}). The exit code is non-zero when
the build fails, the sources are missing, a check fails or the run times out.

--smoke runs every workload of BENCHMARK.json at a tiny size for one second,
with tracing off and on, and asserts that each emits exactly the metrics
BENCHMARK.json names, each with its unit and a finite value.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must finish within 180 s, build excluded


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the perfbench binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src; nothing to build")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the perfbench binary once; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", ".bench_out"]
    if smoke:
        cmd.append("--smoke")
    try:
        # Relative --out from the checkout root keeps the service's Unix socket
        # path short (sun_path holds 108 bytes) however deep the checkout is.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        return proc.returncode or 1, None


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run_workload(binary, w["name"], 1, 1, trace, smoke=True)
            where = f"{w['name']} --trace {trace}"
            if code != 0 or res is None or res.get("correct") is not True:
                problems.append(f"{where}: exit {code}, result {res}")
                continue
            if not isinstance(res["attempted"], int) or res["attempted"] < 1:
                problems.append(f"{where}: attempted {res['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = res["metrics"]
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    problems.append(f"{where}: metric {name} missing")
                elif m.get("unit") != unit:
                    problems.append(f"{where}: {name} in {m.get('unit')}, declared {unit}")
                elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} value {m.get('value')}")
            for name in sorted(set(got) - set(want)):
                problems.append(f"{where}: undeclared metric {name}")
            log(f"smoke {where}: {len(got)} metrics, {res['attempted']} operations")
    for p in problems:
        log("SMOKE FAIL " + p)
    if not problems:
        log("smoke ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of every workload; asserts every metric is emitted")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    code, res = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return code or 1
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
