#!/usr/bin/env python3
"""Same-host A/B of the simulator-speed benchmark between two checkouts.

Usage:

    python3 tools/simbench_ab.py <base checkout> <change checkout>

Reads the change checkout's BENCHMARK.json for the benchmark command,
the workloads, run_seconds and each end-to-end metric's direction and
bound.  For every workload it runs PAIRS pairs of timed runs.  Both
runs of a pair use one seed, and the side that runs first alternates
from pair to pair, so a slow stretch of the host lands on both sides
alike.  Each side runs its own simbench/run.py with CARGO_TARGET_DIR
set to <checkout>/.bench_build/ab.

It prints, per workload and metric, both sides' medians, the relative
change of the medians, the pairs the change won, and a seeded
bootstrap 95% interval of the relative change.  It exits 1 when

- a run of either side fails, prints no result or reports
  `correct: false`;
- the change fails a larger share of its runs than the base;
- on any workload, the change's median of an end-to-end metric is
  worse than the base's by more than the metric's bound;

and 0 otherwise (2 on a bad command line).  The bounds are
BENCHMARK.json's own, so the script takes no tolerance.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time

# Even, so each side runs first in half the pairs.
PAIRS = 6
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1


def run_side(checkout, command, workload, seed, seconds):
    """One timed run; its result line, or "" when the run failed."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build", "ab"))
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if proc.returncode == 0 and lines else ""


def parse(line):
    """The result object of a correct run, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or result.get("correct") is not True \
            or result.get("failed", 0) != 0:
        return None
    return result


def worse_by(metric, base, change):
    """How much worse change is than base, as a share of base."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - base) / abs(base)
    return -delta if metric["better"] == "higher" else delta


def interval(rng, base, change):
    """Bootstrap 95% interval of median(change) / median(base) - 1."""
    n = len(base)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        idx = [rng.randrange(n) for _ in range(n)]
        b = statistics.median(base[i] for i in idx)
        c = statistics.median(change[i] for i in idx)
        ratios.append(c / b - 1 if b else 0.0)
    ratios.sort()
    return (ratios[int(0.025 * len(ratios))],
            ratios[int(0.975 * len(ratios)) - 1])


def verdict(spec, pairs):
    """Judge the runs.

    spec is a parsed BENCHMARK.json; pairs maps a workload to a list of
    (base result line, change result line).  Returns the report lines
    and the list of failures; the change passes when that list is
    empty.
    """
    rng = random.Random(BOOTSTRAP_SEED)
    report = ["%-17s %-20s %11s %11s %8s %5s  %s" % (
        "workload", "metric", "base", "change", "change", "won",
        "95% interval")]
    failures = []
    failed = {"base": 0, "change": 0}
    runs = 0
    for workload, lines in pairs.items():
        results = [(parse(b), parse(c)) for b, c in lines]
        runs += len(results)
        for side, i in (("base", 0), ("change", 1)):
            bad = sum(1 for r in results if r[i] is None)
            failed[side] += bad
            if bad:
                failures.append("%s: %d of %d %s runs failed or were not "
                                "correct" % (workload, bad, len(results),
                                             side))
        good = [r for r in results if r[0] is not None and r[1] is not None]
        if not good:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                base = [b["metrics"][name]["value"] for b, _ in good]
                change = [c["metrics"][name]["value"] for _, c in good]
            except KeyError:
                failures.append("%s: a run does not report %s"
                                % (workload, name))
                continue
            mb, mc = statistics.median(base), statistics.median(change)
            worse = worse_by(metric, mb, mc)
            won = sum(1 for b, c in zip(base, change)
                      if worse_by(metric, b, c) < 0)
            lo, hi = interval(rng, base, change)
            report.append("%-17s %-20s %11.4g %11.4g %+7.1f%% %2d/%-2d  "
                          "[%+.1f%%, %+.1f%%]" % (
                              workload, name, mb, mc,
                              100 * (mc / mb - 1) if mb else 0.0, won,
                              len(good), 100 * lo, 100 * hi))
            if worse > metric["bound"]:
                failures.append(
                    "%s: %s median is %.1f%% worse than the base's, over "
                    "its %.0f%% bound" % (workload, name, 100 * worse,
                                          100 * metric["bound"]))
    if runs and failed["change"] > failed["base"]:
        failures.append("the change failed %d of %d runs, the base %d"
                        % (failed["change"], runs, failed["base"]))
    return report, failures


def main(argv):
    if len(argv) != 2 or not all(os.path.isdir(p) for p in argv) or \
            os.path.realpath(argv[0]) == os.path.realpath(argv[1]):
        print("usage: simbench_ab.py <base checkout> <change checkout> "
              "(two different directories)", file=sys.stderr)
        return 2
    sides = {"base": os.path.abspath(argv[0]),
             "change": os.path.abspath(argv[1])}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    started = time.monotonic()
    pairs = {}
    for w in spec["workloads"]:
        workload = w["name"]
        pairs[workload] = []
        for pair in range(PAIRS):
            seed = pair + 1
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            line = {}
            for side in order:
                print("simbench_ab: %s pair %d/%d seed %d: %s"
                      % (workload, pair + 1, PAIRS, seed, side),
                      file=sys.stderr, flush=True)
                line[side] = run_side(sides[side], spec["command"], workload,
                                      seed, spec["run_seconds"])
            pairs[workload].append((line["base"], line["change"]))
    report, failures = verdict(spec, pairs)
    print("\n".join(report))
    print("%d pairs per workload, %d s per run, %.0f s in all"
          % (PAIRS, spec["run_seconds"], time.monotonic() - started))
    for failure in failures:
        print("FAIL " + failure)
    print("verdict: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
