#!/usr/bin/env python3
"""Alternated A/B pairs of one perfbench workload: a parent revision against a change.

Run from anywhere inside a checkout:

    python3 tools/perf_ab.py --parent <rev> --workload rmat16-base --seeds 71-80

The parent side is <rev>, exported with `git archive` into --dir; the change
side is this checkout's working tree. Each run is that side's own
`perfbench/run.py --workload W --seed S --seconds N --trace T`, with N the
run_seconds of BENCHMARK.json and CARGO_TARGET_DIR set to the side's build
directory under --dir (never the checkout's .bench_build), so each side is
built and run as its own benchmark does it; a run's output (the trace of
--trace 1 among it) lands in that side's .bench_out. The side that runs
first alternates from seed to seed.

It prints, per metric of BENCHMARK.json (end_to_end; per_layer too under
--trace 1): every pair, each side's median and quartiles, the parent IQR, the
win count (ties count for neither side), the gain verdict (at least ten
pairs, the change wins at least 9 in 10 of them and its median is better by
more than the parent IQR) and the change of the medians against the metric's
BENCHMARK.json bound. It names every run with failed operations, `correct:
false` or no result, and exits non-zero if there was one. Each result line is
appended to <dir>/runs.jsonl.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


def parse_seeds(text):
    """'71-80' -> [71, ..., 80]; '71' -> [71]."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change, better, bound=None):
    """Statistics of one metric over paired runs (parent[i] pairs change[i]).

    `better` is "lower" or "higher". Returns a dict: both sides' quartiles,
    the parent IQR, wins/losses/ties of the change, `gain` (at least ten
    pairs, wins >= 90% of them and the change median better by more than
    the parent IQR), `rel_change` of the medians (signed, positive =
    larger) and `within_bound` (None without a bound: the median moved the
    wrong way by at most `bound` as a fraction of the parent median).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on each side")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq = quartiles(parent)
    cq = quartiles(change)
    iqr = pq[2] - pq[0]
    gain = (len(parent) >= 10 and 10 * wins >= 9 * len(parent)
            and sign * (cq[1] - pq[1]) > iqr)
    rel = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] != 0 else (0.0 if cq[1] == pq[1] else math.inf)
    within = None if bound is None else -sign * rel <= bound
    return {"parent": pq, "change": cq, "parent_iqr": iqr, "wins": wins,
            "losses": losses, "ties": len(parent) - wins - losses, "gain": gain,
            "rel_change": rel, "within_bound": within}


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE,
                          text=False).stdout


def export(rev, workdir):
    """Source tree of `rev` under workdir (exported once per commit)."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest = os.path.join(workdir, f"src-{sha[:12]}")
    if not os.path.isdir(dest):
        tmp = dest + ".partial"
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
            tar.extractall(tmp)
        os.rename(tmp, dest)
    return dest, sha[:12]


def run_once(src, build_dir, side, workload, seed, seconds, trace):
    """One run of `src`'s perfbench/run.py; returns its result line or None."""
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=dict(os.environ, CARGO_TARGET_DIR=build_dir),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{side} seed {seed}: no result line (exit {proc.returncode}); stderr ends:\n"
            + "\n".join(proc.stderr.splitlines()[-20:]))
        return None


def fmt(x):
    return f"{x:.6g}"


def report(spec, names, seeds, results):
    """Prints the per-metric tables; `results[side][i]` pairs with seeds[i]."""
    for name in names:
        m = spec[name]
        try:
            parent = [r["metrics"][name]["value"] for r in results["parent"]]
            change = [r["metrics"][name]["value"] for r in results["change"]]
        except KeyError:
            print(f"\n{name}: missing from a result")
            continue
        s = summarize(parent, change, m["better"], m.get("bound"))
        print(f"\n{name} ({m['unit']}, {m['better']} is better)")
        print(f"  {'seed':>6} {'parent':>14} {'change':>14}")
        for seed, p, c in zip(seeds, parent, change):
            print(f"  {seed:>6} {fmt(p):>14} {fmt(c):>14}")
        for side in ("parent", "change"):
            q1, med, q3 = s[side]
            print(f"  {side} median {fmt(med)} (quartiles {fmt(q1)} .. {fmt(q3)})")
        print(f"  parent IQR {fmt(s['parent_iqr'])}; change wins {s['wins']} of "
              f"{len(seeds)}, loses {s['losses']}, ties {s['ties']}")
        print(f"  gain: {'yes' if s['gain'] else 'no'}; medians {100 * s['rel_change']:+.1f}%"
              + ("" if s["within_bound"] is None else
                 f", bound {m['bound']}: {'within' if s['within_bound'] else 'EXCEEDED'}"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a range such as 71-80, or one seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", default=os.path.join(ROOT, ".perf_ab"),
                    help="exports, builds and runs.jsonl (default: .perf_ab)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload}")
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"] + (bench["per_layer"] if args.trace else [])
    spec = {m["name"]: m for m in metrics}

    workdir = os.path.abspath(args.dir)
    os.makedirs(workdir, exist_ok=True)
    parent_src, parent_id = export(args.parent, workdir)
    ids = {"parent": parent_id, "change": "worktree"}
    srcs = {"parent": parent_src, "change": ROOT}
    log(f"parent {parent_id}, change worktree: {args.workload}, seeds {args.seeds}, "
        f"{seconds:g} s, --trace {args.trace}")

    results = {"parent": [], "change": []}
    problems = []
    with open(os.path.join(workdir, "runs.jsonl"), "a") as runs:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(srcs[side], os.path.join(workdir, f"build-{ids[side]}"), side,
                               args.workload, seed, seconds, args.trace)
                runs.write(json.dumps({"side": side, "rev": ids[side],
                                       "workload": args.workload, "seed": seed,
                                       "trace": args.trace, "result": res}) + "\n")
                runs.flush()
                if res is None:
                    problems.append(f"{side} seed {seed}: no result")
                    res = {"metrics": {}}
                elif res.get("correct") is not True or res.get("failed", 0) != 0:
                    problems.append(f"{side} seed {seed}: correct {res.get('correct')}, "
                                    f"failed {res.get('failed')} of {res.get('attempted')}")
                results[side].append(res)
                log(f"seed {seed} {side} done")

    report(spec, [m["name"] for m in metrics], seeds, results)
    print()
    for p in problems:
        print(f"FAILED RUN {p}")
    if not problems:
        print("every run correct, 0 failed operations")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
