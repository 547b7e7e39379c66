#!/usr/bin/env python3
"""Guard the committed perf trail (BENCH_PR3.json and successors).

Runs the micro_kernels PR3 emitter (when --bench is given) on a small input,
then compares the fresh numbers against the committed baseline:

  * every kernel present in both files must not be more than --tolerance
    slower per arc than the baseline (faster is always fine);
  * the machine-independent speedup floor: the flat local-move kernel must
    stay at least --min-speedup x faster than the hash baseline measured in
    the SAME run (this is the PR3 acceptance bar and does not depend on what
    hardware recorded the baseline).

With --manifest, additionally validates a run manifest produced by
`dlouvain_cli --metrics-out` (or Plan::metrics) against the one schema in
tools/manifest_schema.py: schema id, counter catalog, sections and internal
consistency (whole-job totals == restored + executed).

When the current results carry an `overlap_ablation` section (the committed
BENCH_PR5.json trail), it is validated too: the on/off runs must have
produced identical results, overlap-off must hide ~nothing, and the hidden
fraction (comm_hidden / total exchange latency of the overlap-on run) must
reach --min-hidden.

When the current results carry an `update` section (the PR6 trail, produced
by `micro_update --pr6_json=...` or `--emit pr6 --bench build/bench/
micro_update`), the streaming-session acceptance bar is checked instead of
the kernel table: Session::update must be at least --min-update-speedup x
faster than the from-scratch run on the same final graph, and the session's
modularity must sit within --mod-tolerance of the from-scratch result.

When the current results carry an `arq` section (the PR7 trail, produced by
`micro_comm --pr7_json=...` or `--emit pr7 --bench build/bench/micro_comm`),
the rung-1 link-layer contracts are checked: the ARQ-off baseline, ARQ-on
clean, 0.1%-loss and 0.1%-corruption runs must all have produced identical
bits, every injected fault must have been repaired by a retransmission, and
no message may have exhausted the retry budget at the sub-threshold rate.
Timing overheads are recorded in the trail but not asserted (wall clocks on
shared hosts are noise).

When the current results carry a `flat_over_best_lane` ratio (the
BENCH_PR8.json trail, `micro_kernels --pr8_json=...` or `--emit pr8`), the
segmented sweep kernel must be at least --min-lane-speedup x faster than the
flat gather baseline measured in the SAME run (interleaved reps, so the
ratio is noise-robust). The committed BENCH_PR8.json also carries an `overlap_auto`
section: all six overlap-mode runs must have produced identical results, and
`--overlap=auto` wall-clock must sit within --auto-tolerance of min(on, off)
at both the zero-latency and the delayed point, with the cost-model decision
recorded.

When the current results carry a `rebalance` section (the committed
BENCH_PR10.json trail; its emitter went with the re-balancer, and the file
stays as data), the phase-boundary load re-balancer contracts are
checked: the decline path (enabled, unreachable threshold) must be bitwise
identical to rebalance-off, every run deterministic across reps, and each
boundary whose even-split lambda reached --lambda-pre-min must have engaged
and brought lambda down to max(--lambda-bar, the structural floor -- the
heaviest single coarse vertex over the mean rank load, which no partitioner
can beat). The decline-path wall must sit within --wall-tolerance of the
rebalance-off wall.

Exit code 0 = within bounds, 1 = regression or malformed input,
2 = missing input file (e.g. the baseline was never committed).

Usage:
  check_bench_regression.py --baseline BENCH_PR3.json \
      --bench build/bench/micro_kernels --scale 12 --dist-scale 10 --reps 3
  check_bench_regression.py --baseline BENCH_PR3.json --current fresh.json
  check_bench_regression.py --baseline BENCH_PR3.json --current fresh.json \
      --manifest run_manifest.json
  check_bench_regression.py --baseline BENCH_PR8.json --emit pr8 \
      --bench build/bench/micro_kernels --scale 12 --reps 3
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import manifest_schema


def load(path, what):
    """Read a JSON file; exit 2 (not a traceback) when it is absent."""
    if not os.path.exists(path):
        print(f"MISSING: {what} file '{path}' does not exist.\n"
              f"  Generate it first (see --help), or point --{what} at the "
              f"committed copy.")
        sys.exit(2)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_manifest(manifest, failures):
    """Validate a --metrics-out run manifest; append problems to failures."""
    problems = manifest_schema.problems(manifest)
    failures.extend(f"manifest {problem}" for problem in problems)
    if problems:
        return
    restored = manifest.get("restored", {}).get("messages", 0)
    print(f"manifest: {manifest['engine']} run, {manifest.get('messages', 0)} "
          f"messages ({restored} restored): ok")


def check_overlap_ablation(ablation, min_hidden, failures):
    """Validate the PR5 overlap on/off ablation; append problems to failures.

    Three contracts: (1) overlap is a schedule change only, so the on and off
    runs must have produced bitwise-identical results; (2) with overlap off
    nothing is overlapped, so comm_hidden must be ~0; (3) with overlap on, the
    interior-first schedule must hide at least min_hidden of the total
    exchange latency (blocked wall + hidden) behind compute.
    """
    for key in ("identical", "off", "on", "hidden_fraction", "comm_hidden"):
        if key not in ablation:
            failures.append(f"overlap_ablation missing '{key}'")
            return
    if ablation["identical"] is not True:
        failures.append("overlap on/off runs did not produce identical results")
    off = ablation["off"]
    off_hidden = off.get("comm_hidden", 0.0)
    off_exchange = off.get("ghost_exchange", 0.0) + off.get("delta_exchange", 0.0)
    # Off-mode tolerance: the blocking wait can still observe a message that
    # arrived a hair before it began; anything beyond 1% of the exchange wall
    # means the off path is overlapping, which it must not.
    if off_hidden > 0.01 * max(off_exchange, 1e-9):
        failures.append(
            f"overlap-off run hid {off_hidden:.4f}s of {off_exchange:.4f}s "
            f"exchange latency (> 1%); off mode must not overlap")
    fraction = ablation["hidden_fraction"]
    print(f"overlap ablation: ranks={ablation.get('ranks')} "
          f"scale={ablation.get('scale')} delay={ablation.get('delay_ms')}ms  "
          f"hidden {ablation['comm_hidden']:.3f}s of "
          f"{ablation['comm_hidden'] + ablation.get('exchange_wall', 0.0):.3f}s "
          f"exchange latency ({fraction:.1%}, floor {min_hidden:.0%})")
    if fraction < min_hidden:
        failures.append(
            f"overlap hid only {fraction:.1%} of exchange latency "
            f"(floor {min_hidden:.0%})")


def check_arq_section(arq, failures):
    """Validate the PR7 rung-1 ARQ-overhead trail; append problems to failures.

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
    print(f"arq trail: ranks={arq.get('ranks')} "
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


def check_overlap_auto(auto, tolerance, failures):
    """Validate the PR8 overlap cost-model trail; append problems to failures.

    Three contracts: (1) the overlap knob is a schedule change only, so all
    six runs (off/on/auto x zero-latency/delayed) must have produced
    identical results; (2) at each latency point, `--overlap=auto` must land
    within `tolerance` of min(on, off) wall-clock -- the cost model may not
    pick a mode that costs more than that over the best forced choice; (3)
    the model must actually have decided (decision on/off recorded, probes
    executed), not fallen through undecided.
    """
    if auto.get("identical") is not True:
        failures.append("overlap off/on/auto runs did not produce identical "
                        "results")
    for point in ("zero_latency", "delayed"):
        section = auto.get(point)
        if not isinstance(section, dict):
            failures.append(f"overlap_auto missing '{point}' section")
            continue
        missing = [k for k in ("off_seconds", "on_seconds", "auto_seconds",
                               "auto_decision", "auto_decided")
                   if k not in section]
        if missing:
            failures.append(f"overlap_auto.{point} missing {missing}")
            continue
        best = min(section["off_seconds"], section["on_seconds"])
        excess = section["auto_seconds"] / best - 1.0
        print(f"overlap auto [{point}]: off {section['off_seconds']:.4f}s, "
              f"on {section['on_seconds']:.4f}s, auto "
              f"{section['auto_seconds']:.4f}s ({excess:+.1%} vs best, "
              f"tol {tolerance:.0%}, decision '{section['auto_decision']}')")
        if excess > tolerance:
            failures.append(
                f"overlap_auto.{point}: auto {section['auto_seconds']:.4f}s "
                f"is {excess:.1%} over min(on, off) {best:.4f}s "
                f"(tolerance {tolerance:.0%})")
        if section["auto_decision"] not in ("on", "off"):
            failures.append(
                f"overlap_auto.{point}: cost model recorded decision "
                f"'{section['auto_decision']}', expected on/off")
        if section["auto_decided"] is not True:
            failures.append(
                f"overlap_auto.{point}: cost model never reached a decision")


def check_update_section(update, min_speedup, mod_tolerance, failures):
    """Validate the PR6 streaming-update trail; append problems to failures."""
    for key in ("speedup", "modularity_delta", "update_seconds_mean",
                "scratch_seconds", "touched_fraction"):
        if key not in update:
            failures.append(f"update section missing '{key}'")
            return
    print(f"update trail: ranks={update.get('ranks')} "
          f"batches={update.get('batches')}x{update.get('batch_edges')} edges  "
          f"update {update['update_seconds_mean']:.3f}s vs scratch "
          f"{update['scratch_seconds']:.3f}s = {update['speedup']:.2f}x "
          f"(floor {min_speedup:.2f}x), |dQ| {update['modularity_delta']:.2e} "
          f"(tol {mod_tolerance:.0e}), touched "
          f"{update['touched_fraction']:.2%}/batch, "
          f"{update.get('fallbacks', 0)} fallback(s)")
    if update["speedup"] < min_speedup:
        failures.append(
            f"Session::update only {update['speedup']:.2f}x faster than "
            f"from-scratch (floor {min_speedup:.2f}x)")
    if update["modularity_delta"] > mod_tolerance:
        failures.append(
            f"session modularity drifted {update['modularity_delta']:.2e} from "
            f"the from-scratch run (tolerance {mod_tolerance:.0e})")


def check_rebalance_section(reb, wall_tolerance, lambda_bar, lambda_pre_min,
                            mod_tolerance, failures):
    """Validate the PR10 load re-balancer trail; append problems to failures.

    Contracts: (1) the decline path (enabled but unreachable threshold) must
    be bitwise identical to rebalance-off, and every run deterministic across
    reps; (2) at every boundary where the even-split lambda_pre reached
    lambda_pre_min, the re-balancer must have engaged and brought lambda_post
    down to max(lambda_bar, lambda_floor) -- lambda_floor is the structural
    limit max(vertex arcs)/mean(rank arcs) that NO partitioner can beat, and
    the exact min-max cut hitting it IS the optimum (late tiny coarse graphs
    routinely have floors above any fixed bar); (3) the decline path's wall
    must sit within wall_tolerance of rebalance-off (the screen is O(p));
    (4) on-vs-off modularity within mod_tolerance (quality equivalence; the
    assignments legitimately differ because sweep order is partition-seeded).
    """
    for key in ("decline_identical", "deterministic", "wall_off", "wall_on",
                "wall_decline", "phases_on", "modularity_delta"):
        if key not in reb:
            failures.append(f"rebalance section missing '{key}'")
            return
    print(f"rebalance trail: ranks={reb.get('ranks')} "
          f"threshold={reb.get('threshold')}  wall off {reb['wall_off']:.3f}s, "
          f"on {reb['wall_on']:.3f}s, decline {reb['wall_decline']:.3f}s; "
          f"{reb.get('phases_engaged')}/{reb.get('phases_evaluated')} "
          f"boundaries engaged, {reb.get('vertices_migrated')} vertices moved, "
          f"|dQ| {reb['modularity_delta']:.2e}")
    if reb["decline_identical"] is not True:
        failures.append("decline-path run is not bitwise identical to "
                        "rebalance-off")
    if reb["deterministic"] is not True:
        failures.append("a run produced different bits across reps")
    for ph in reb["phases_on"]:
        if not ph.get("evaluated") or ph.get("lambda_pre", 0) < lambda_pre_min:
            continue
        bar = max(lambda_bar, ph.get("lambda_floor", 1.0) + 1e-9)
        post = ph.get("lambda_post", float("inf"))
        print(f"  boundary after phase {ph.get('phase')}: lambda "
              f"{ph.get('lambda_pre'):.3f} -> {post:.3f} "
              f"(floor {ph.get('lambda_floor', 1.0):.3f}, bar {bar:.3f}, "
              f"{'engaged' if ph.get('engaged') else 'declined'})")
        if not ph.get("engaged"):
            failures.append(
                f"boundary after phase {ph.get('phase')}: lambda_pre "
                f"{ph.get('lambda_pre'):.3f} >= {lambda_pre_min} but the "
                f"re-balancer declined")
        if post > bar:
            failures.append(
                f"boundary after phase {ph.get('phase')}: lambda_post "
                f"{post:.3f} > max(bar {lambda_bar}, floor "
                f"{ph.get('lambda_floor', 1.0):.3f})")
    excess = reb["wall_decline"] / max(reb["wall_off"], 1e-12) - 1.0
    if excess > wall_tolerance:
        failures.append(
            f"decline-path wall {reb['wall_decline']:.3f}s is "
            f"{excess:.1%} over rebalance-off {reb['wall_off']:.3f}s "
            f"(tolerance {wall_tolerance:.0%})")
    if reb["modularity_delta"] > mod_tolerance:
        failures.append(
            f"rebalance-on modularity drifted {reb['modularity_delta']:.2e} "
            f"from off (tolerance {mod_tolerance:.0e})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--current", help="fresh results JSON (skip running the bench)")
    parser.add_argument("--bench", help="micro_kernels binary to produce fresh results")
    parser.add_argument("--scale", type=int, default=12, help="RMAT scale for --bench")
    parser.add_argument("--dist-scale", type=int, default=10,
                        help="RMAT scale for the breakdown run")
    parser.add_argument("--reps", type=int, default=3, help="best-of repetitions")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed per-kernel slowdown vs baseline (0.25 = 25%%)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required hash/flat local-move ratio in the fresh run")
    parser.add_argument("--manifest",
                        help="also validate this --metrics-out run manifest")
    parser.add_argument("--emit",
                        choices=("pr3", "pr6", "pr7", "pr8"),
                        default="pr3",
                        help="which trail --bench should produce (default pr3)")
    parser.add_argument("--ranks", type=int, default=8,
                        help="ranks for the pr6 / pr7 runs")
    parser.add_argument("--min-hidden", type=float, default=0.30,
                        help="required hidden fraction of exchange latency "
                             "when an overlap_ablation section is present")
    parser.add_argument("--min-update-speedup", type=float, default=3.0,
                        help="required Session::update vs from-scratch speedup "
                             "when an update section is present")
    parser.add_argument("--mod-tolerance", type=float, default=1e-3,
                        help="allowed |session - scratch| modularity gap for "
                             "the update section")
    parser.add_argument("--auto-tolerance", type=float, default=0.05,
                        help="allowed --overlap=auto wall-clock excess over "
                             "min(on, off) when an overlap_auto section is "
                             "present (0.05 = 5%%)")
    parser.add_argument("--min-lane-speedup", type=float, default=1.05,
                        help="required flat/segmented local-move ratio when "
                             "a flat_over_best_lane (pr8) ratio is present")
    parser.add_argument("--wall-tolerance", type=float, default=0.10,
                        help="allowed decline-path wall excess over "
                             "rebalance-off when a rebalance (pr10) section "
                             "is present (0.10 = 10%%)")
    parser.add_argument("--lambda-bar", type=float, default=1.15,
                        help="required post-rebalance arc lambda (or the "
                             "structural floor, whichever is higher) at "
                             "engaged boundaries of the pr10 trail")
    parser.add_argument("--lambda-pre-min", type=float, default=1.5,
                        help="even-split lambda above which a pr10 boundary "
                             "must engage and meet --lambda-bar")
    args = parser.parse_args()

    if bool(args.current) == bool(args.bench):
        parser.error("pass exactly one of --current or --bench")

    if args.bench:
        fd, current_path = tempfile.mkstemp(suffix=".json",
                                            prefix=f"bench_{args.emit}_")
        os.close(fd)
        cmd = [
            args.bench,
            f"--{args.emit}_json={current_path}",
            f"--{args.emit}_scale={args.scale}",
            f"--{args.emit}_dist_scale={args.dist_scale}",
            f"--{args.emit}_reps={args.reps}",
        ]
        if args.emit in ("pr6", "pr7"):
            cmd += [f"--{args.emit}_ranks={args.ranks}"]
        print("+", " ".join(cmd), flush=True)
        result = subprocess.run(cmd)
        if result.returncode != 0:
            print(f"FAIL: bench exited with {result.returncode}")
            return 1
    else:
        current_path = args.current

    baseline = load(args.baseline, "baseline")
    current = load(current_path, "current")

    failures = []
    if args.manifest:
        check_manifest(load(args.manifest, "manifest"), failures)
    if "overlap_ablation" in current:
        check_overlap_ablation(current["overlap_ablation"], args.min_hidden,
                               failures)
    if "update" in current:
        check_update_section(current["update"], args.min_update_speedup,
                             args.mod_tolerance, failures)
    if "arq" in current:
        check_arq_section(current["arq"], failures)
    if "rebalance" in current:
        check_rebalance_section(current["rebalance"], args.wall_tolerance,
                                args.lambda_bar, args.lambda_pre_min,
                                args.mod_tolerance, failures)
    if "overlap_auto" in current:
        check_overlap_auto(current["overlap_auto"], args.auto_tolerance,
                           failures)
    lane_ratio = current.get("ratios", {}).get("flat_over_best_lane")
    if lane_ratio is not None:
        print(f"segmented-kernel speedup (flat/segmented, same machine, "
              f"interleaved reps): {lane_ratio:.2f}x "
              f"(floor {args.min_lane_speedup:.2f}x)")
        if lane_ratio < args.min_lane_speedup:
            failures.append(
                f"segmented sweep kernel only {lane_ratio:.2f}x faster than "
                f"the flat gather baseline "
                f"(floor {args.min_lane_speedup:.2f}x)")
    base_kernels = baseline.get("kernels", {})
    curr_kernels = current.get("kernels", {})
    same_input = baseline.get("graph") == current.get("graph")
    for name in sorted(set(base_kernels) & set(curr_kernels)):
        base_ns = base_kernels[name]["ns_per_arc"]
        curr_ns = curr_kernels[name]["ns_per_arc"]
        slowdown = curr_ns / base_ns - 1.0
        status = "ok"
        # A smaller smoke input can legitimately be faster per arc (cache
        # residency); only a SLOWDOWN beyond tolerance fails.
        if slowdown > args.tolerance:
            status = "REGRESSION"
            failures.append(
                f"{name}: {curr_ns:.2f} ns/arc vs baseline {base_ns:.2f} "
                f"(+{100 * slowdown:.1f}% > {100 * args.tolerance:.0f}%)")
        note = "" if same_input else " [different input size]"
        print(f"{name}: {curr_ns:8.2f} ns/arc  baseline {base_ns:8.2f}  "
              f"({slowdown:+.1%}) {status}{note}")

    ratio = current.get("ratios", {}).get("local_move_hash_over_flat")
    if ratio is None:
        # The kernel-ratio floor applies to kernel trails (pr3/pr5/pr8); a pr6
        # update trail carries no kernel table by design.
        if "kernels" in current or "kernels" in baseline:
            failures.append("current results carry no local_move_hash_over_flat ratio")
    else:
        print(f"local-move speedup (hash/flat, same machine): {ratio:.2f}x "
              f"(floor {args.min_speedup:.2f}x)")
        if ratio < args.min_speedup:
            failures.append(
                f"flat local-move kernel only {ratio:.2f}x faster than the hash "
                f"baseline (floor {args.min_speedup:.2f}x)")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
