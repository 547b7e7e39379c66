#!/usr/bin/env python3
"""Smoke-test dlouvain_cli observability outputs (the trace_smoke ctest).

Runs the CLI on a small generated graph with --trace-out and --metrics-out,
then checks:

  * the trace is Chrome trace_event JSON: a traceEvents list whose entries
    all carry name/ph/pid/ts, complete ("X") events carry dur, and at least
    --ranks distinct pids appear (one per simulated rank);
  * the manifest passes the one run-manifest schema check
    (tools/manifest_schema.py: dlouvain-run-manifest/8, its counter catalog
    and sections) and recorded real traffic (comm.messages > 0 for a
    multi-rank run);
  * every breakdown column has a span that feeds it (BREAKDOWN_SPANS),
    and the `rebuild` span's steps show up too (REBUILD_STEPS: the paper's
    Fig. 1 steps and the chain update).

Exit code 0 = both artifacts valid, 1 = validation failure, 2 = the CLI
itself failed.

Usage:
  validate_trace.py --cli build/tools/dlouvain_cli [--ranks 2]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import manifest_schema


# One span per breakdown column, named after it; every run records each
# (docs/OBSERVABILITY.md lists every span that feeds a column).
BREAKDOWN_SPANS = ("ghost_exchange", "community_info", "compute",
                   "delta_exchange", "allreduce", "rebuild")

# Child spans of every `rebuild`: steps 1-3, step 4, step 5, steps 6-7 and
# the original->meta chain update.
REBUILD_STEPS = ("rebuild_renumber", "rebuild_resolve", "rebuild_coalesce",
                 "rebuild_ship", "rebuild_chain")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_trace(path, min_pids):
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents list")
    pids = set()
    spans = 0
    for ev in events:
        for key in ("name", "ph", "pid", "ts"):
            if key not in ev:
                fail(f"{path}: event missing '{key}': {ev}")
        if ev["ph"] == "X":
            spans += 1
            if "dur" not in ev:
                fail(f"{path}: complete event missing 'dur': {ev}")
            if ev["dur"] < 0 or ev["ts"] < 0:
                fail(f"{path}: negative timestamp in {ev}")
        pids.add(ev["pid"])
    if len(pids) < min_pids:
        fail(f"{path}: only {len(pids)} pid(s), expected >= {min_pids} "
             f"(one per simulated rank)")
    if spans == 0:
        fail(f"{path}: no complete ('X') span events recorded")
    names = {ev["name"] for ev in events if ev["ph"] == "X"}
    for name in ("phase", "iteration", *BREAKDOWN_SPANS, *REBUILD_STEPS):
        if name not in names:
            fail(f"{path}: span taxonomy missing '{name}' "
                 f"(got {sorted(names)})")
    print(f"trace ok: {spans} spans across {len(pids)} pids")


def check_manifest(path):
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    for problem in manifest_schema.problems(manifest):
        fail(f"{path}: {problem}")
    counters = manifest["counters"]
    if counters["comm.messages"] <= 0:
        fail(f"{path}: comm.messages not positive in a multi-rank run")
    print(f"manifest ok: schema {manifest['schema']}, "
          f"{counters['comm.messages']} messages")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="dlouvain_cli binary")
    parser.add_argument("--ranks", type=int, default=2)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="dlouvain_trace_") as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        manifest_path = os.path.join(tmp, "manifest.json")
        cmd = [
            args.cli, "--generate", "channel", "--scale", "0.2",
            "--ranks", str(args.ranks), "--trace-out", trace_path,
            "--metrics-out", manifest_path,
        ]
        print("+", " ".join(cmd), flush=True)
        result = subprocess.run(cmd)
        if result.returncode != 0:
            print(f"FAIL: CLI exited with {result.returncode}")
            return 2
        check_trace(trace_path, min_pids=args.ranks)
        check_manifest(manifest_path)
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
