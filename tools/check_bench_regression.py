#!/usr/bin/env python3
"""Check a micro-trail run against the committed trail (bench/trail.json).

Both files carry the one bench schema, "dlouvain-bench/1", and up to three
sections, each written by one binary (docs/PERFORMANCE.md §5):

  kernels  micro_kernels: ns/arc of the local-move sweep and of coarsen on
           one R-MAT graph, plus the `graph` it ran on. The current file
           must name exactly the baseline's kernels, and none may be more
           than --tolerance slower per arc than its baseline. Faster always
           passes: a smaller smoke input is expected to be faster per arc.
  update   micro_update: Session::update against a from-scratch run on the
           same final graph. The update must be at least
           --min-update-speedup x faster, and the session modularity no more
           than --mod-tolerance below the from-scratch one.
  arq      micro_comm: rung-1 ARQ on a ring stream, clean, lossy and
           corrupting. All runs must give identical bits, every injected
           fault must be repaired by a retransmission, and nothing may
           exhaust the retry budget. Timings are recorded, never gated.

The current file must hold at least one section, and the baseline every
section the current file holds. With --manifest, a run manifest from
`dlouvain_cli --metrics-out` is validated too (tools/manifest_schema.py).

--bench runs `BIN --json=TMP --scale=N --reps=N [--ranks=N]` and checks the
section it writes; --current checks a file instead.

Exit code 0 = within bounds, 1 = regression or malformed input,
2 = missing input file.

Usage:
  check_bench_regression.py --baseline bench/trail.json \
      --bench build/bench/micro_kernels --scale 12 --reps 3
  check_bench_regression.py --baseline bench/trail.json \
      --current bench/trail.json --manifest run_manifest.json
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import manifest_schema

SCHEMA = "dlouvain-bench/1"
SECTIONS = ("kernels", "update", "arq")


def load(path, what):
    """Read a JSON file; exit 2 (not a traceback) when it is absent."""
    if not os.path.exists(path):
        print(f"MISSING: {what} file '{path}' does not exist.\n"
              f"  Generate it first (see --help), or point --{what} at the "
              f"committed copy.")
        sys.exit(2)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            print(f"FAIL: {what} file '{path}' is not JSON: {err}")
            sys.exit(1)


def load_trail(path, what):
    """Read a trail file; exit 1 unless it carries the one bench schema."""
    trail = load(path, what)
    schema = trail.get("schema") if isinstance(trail, dict) else None
    if schema != SCHEMA:
        print(f"FAIL: {what} file '{path}' has schema {schema!r}, "
              f"expected '{SCHEMA}'")
        sys.exit(1)
    return trail


def check_manifest(manifest, failures):
    """Validate a --metrics-out run manifest; append problems to failures."""
    problems = manifest_schema.problems(manifest)
    failures.extend(f"manifest {problem}" for problem in problems)
    if problems:
        return
    restored = manifest.get("restored", {}).get("messages", 0)
    print(f"manifest: {manifest['engine']} run, {manifest.get('messages', 0)} "
          f"messages ({restored} restored): ok")


def check_kernels(base, curr, tolerance, failures):
    """Compare the kernels sections kernel by kernel; every key but `graph`
    names a kernel."""
    base_names = set(base) - {"graph"}
    curr_names = set(curr) - {"graph"}
    for name in sorted(base_names - curr_names):
        failures.append(f"kernel '{name}' is in the baseline but not in the "
                        f"current run")
    for name in sorted(curr_names - base_names):
        failures.append(f"kernel '{name}' is in the current run but not in "
                        f"the baseline")
    note = "" if base.get("graph") == curr.get("graph") else \
        " [different input size]"
    for name in sorted(base_names & curr_names):
        try:
            base_ns = float(base[name]["ns_per_arc"])
            curr_ns = float(curr[name]["ns_per_arc"])
        except (KeyError, TypeError, ValueError):
            failures.append(f"kernel '{name}' has no ns_per_arc on both sides")
            continue
        slowdown = curr_ns / base_ns - 1.0
        status = "ok"
        if slowdown > tolerance:
            status = "REGRESSION"
            failures.append(
                f"{name}: {curr_ns:.2f} ns/arc vs baseline {base_ns:.2f} "
                f"(+{100 * slowdown:.1f}% > {100 * tolerance:.0f}%)")
        print(f"{name}: {curr_ns:8.2f} ns/arc  baseline {base_ns:8.2f}  "
              f"({slowdown:+.1%}) {status}{note}")


def check_update(base, update, min_speedup, mod_tolerance, failures):
    """Validate the streaming-update section; append problems to failures."""
    for key in ("speedup", "modularity_delta", "update_seconds_mean",
                "scratch_seconds", "touched_fraction"):
        if key not in update:
            failures.append(f"update section missing '{key}'")
            return
    print(f"update: ranks={update.get('ranks')} "
          f"batches={update.get('batches')}x{update.get('batch_edges')} edges  "
          f"update {update['update_seconds_mean']:.3f}s vs scratch "
          f"{update['scratch_seconds']:.3f}s = {update['speedup']:.2f}x "
          f"(floor {min_speedup:.2f}x, baseline {base.get('speedup', 0):.2f}x), "
          f"|dQ| {update['modularity_delta']:.2e} (tol {mod_tolerance:.0e}), "
          f"touched {update['touched_fraction']:.2%}/batch, "
          f"{update.get('fallbacks', 0)} fallback(s)")
    if update["speedup"] < min_speedup:
        failures.append(
            f"Session::update only {update['speedup']:.2f}x faster than "
            f"from-scratch (floor {min_speedup:.2f}x)")
    if update["modularity_delta"] > mod_tolerance:
        failures.append(
            f"session modularity drifted {update['modularity_delta']:.2e} from "
            f"the from-scratch run (tolerance {mod_tolerance:.0e})")


def check_arq(arq, failures):
    """Validate the rung-1 ARQ section; append problems to failures.

    The contracts are structural, not timing-based (wall clocks on a loaded
    or single-core host are noise): (1) retransmission is a repair mechanism
    only, so all four runs -- ARQ off, ARQ on clean, lossy, corrupting --
    must have produced identical bits; (2) every injected drop costs at
    least one retransmission (repair, never a silent skip); (3) faults at
    the sub-threshold rate must never exhaust the retry budget.
    """
    for key in ("identical", "baseline_seconds", "clean_seconds",
                "loss_seconds", "corrupt_seconds", "injected_losses",
                "injected_corruptions", "retransmits_loss",
                "retransmits_corrupt", "escalations"):
        if key not in arq:
            failures.append(f"arq section missing '{key}'")
            return
    print(f"arq: ranks={arq.get('ranks')} "
          f"{arq.get('messages_per_rank')} msgs/rank  "
          f"baseline {arq['baseline_seconds']:.3f}s, clean "
          f"{arq['clean_seconds']:.3f}s, loss {arq['loss_seconds']:.3f}s "
          f"({arq['injected_losses']} drops / {arq['retransmits_loss']} "
          f"retransmits), corrupt {arq['corrupt_seconds']:.3f}s "
          f"({arq['injected_corruptions']} hits / {arq['retransmits_corrupt']} "
          f"retransmits)")
    if arq["identical"] is not True:
        failures.append("ARQ runs did not produce results identical to the "
                        "clean baseline")
    if arq["escalations"] != 0:
        failures.append(
            f"{arq['escalations']} message(s) exhausted the retransmit budget "
            f"at the sub-threshold fault rate")
    if arq["injected_losses"] > 0 and \
            arq["retransmits_loss"] < arq["injected_losses"]:
        failures.append(
            f"only {arq['retransmits_loss']} retransmit(s) for "
            f"{arq['injected_losses']} injected drop(s); every loss must be "
            f"repaired by the link layer")
    if arq["injected_corruptions"] > 0 and arq["retransmits_corrupt"] < 1:
        failures.append(
            f"{arq['injected_corruptions']} injected corruption(s) but no "
            f"retransmissions; the checksum lane is not catching them")
    if arq["injected_losses"] == 0 and arq["injected_corruptions"] == 0:
        failures.append("fault scenarios injected nothing; the trail proves "
                        "no repair happened (raise the stream volume)")


def run_bench(args, current_path):
    """Run the --bench binary so it writes its section to current_path."""
    cmd = [args.bench, f"--json={current_path}", f"--scale={args.scale}",
           f"--reps={args.reps}"]
    if args.ranks is not None:
        cmd.append(f"--ranks={args.ranks}")
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(cmd).returncode


def check(args, current_path):
    baseline = load_trail(args.baseline, "baseline")
    current = load_trail(current_path, "current")

    failures = []
    if args.manifest:
        check_manifest(load(args.manifest, "manifest"), failures)
    present = [name for name in SECTIONS if name in current]
    if not present:
        failures.append(f"current file holds none of the sections "
                        f"{', '.join(SECTIONS)}")
    for name in present:
        if name not in baseline:
            failures.append(f"baseline has no '{name}' section to check the "
                            f"current one against")
        elif name == "kernels":
            check_kernels(baseline["kernels"], current["kernels"],
                          args.tolerance, failures)
        elif name == "update":
            check_update(baseline["update"], current["update"],
                         args.min_update_speedup, args.mod_tolerance, failures)
        else:
            check_arq(current["arq"], failures)

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: within bounds")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed trail (bench/trail.json)")
    parser.add_argument("--current", help="trail file to check (skip the bench)")
    parser.add_argument("--bench",
                        help="micro_kernels, micro_update or micro_comm binary "
                             "to produce the current section")
    parser.add_argument("--scale", type=int, default=12,
                        help="--scale for --bench (R-MAT scale; log2 of the "
                             "stream volume for micro_comm)")
    parser.add_argument("--reps", type=int, default=3,
                        help="--reps for --bench (best-of repetitions)")
    parser.add_argument("--ranks", type=int,
                        help="--ranks for --bench (default: the binary's own)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed per-kernel slowdown vs baseline "
                             "(0.25 = 25%%)")
    parser.add_argument("--min-update-speedup", type=float, default=3.0,
                        help="required Session::update vs from-scratch speedup")
    parser.add_argument("--mod-tolerance", type=float, default=1e-3,
                        help="allowed session modularity below from-scratch")
    parser.add_argument("--manifest",
                        help="also validate this --metrics-out run manifest")
    args = parser.parse_args()

    if bool(args.current) == bool(args.bench):
        parser.error("pass exactly one of --current or --bench")
    if args.current:
        return check(args, args.current)
    with tempfile.TemporaryDirectory(prefix="dlouvain_trail_") as tmp:
        current_path = os.path.join(tmp, "current.json")
        code = run_bench(args, current_path)
        if code != 0:
            print(f"FAIL: bench exited with {code}")
            return 1
        return check(args, current_path)


if __name__ == "__main__":
    sys.exit(main())
