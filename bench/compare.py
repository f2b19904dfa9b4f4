#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares a google-benchmark JSON result (--current) against the
committed bench/baseline.json (--baseline). Benchmarks listed in GATED
are enforced: a regression above --warn prints a warning, above --fail
the script exits non-zero and fails the CI job. Everything else is
informational. Deterministic properties (the partial-order reduction
floor, the marking store's bytes/state ceilings) are tier-1 tests, not
checks here.

Because CI runners and developer machines differ in absolute speed, each
current time is first scaled by the median baseline/current ratio over
its anchors: the ungated benchmarks present in both files whose baseline
time is within 10x of the row's own, when at least three exist, and
every ungated benchmark otherwise. Machine-speed differences cancel
while regressions *relative to the rest of the code base* remain
visible, no single noisy anchor can move every row, and a host that
speeds up ms-scale work more than ns-scale work does not mis-scale the
ns-scale rows. Pass --absolute to compare raw numbers instead (useful
when baseline and current come from the same machine).

Refresh the baseline (after intentional performance changes, on the
reference machine) with the CI job's own command, built at the commit
the next change is to be measured against:

    ./build/bench/bench_micro --benchmark_repetitions=3 \
        --benchmark_report_aggregates_only=true \
        --benchmark_format=json --benchmark_out=bench/baseline.json
"""

import argparse
import json
import statistics
import sys

# Benchmarks that gate the build: the reachability/verification engine
# hot paths this repo's performance story rests on.
GATED = (
    "BM_PetriFire",
    "BM_CompiledFire",
    "BM_ReachabilityFig1b",
    "BM_ReachabilityOpeStates",
    "BM_VerifyAllSinglePass",
    "BM_PorPassOpe",
)

TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}

# A row's anchors are the ungated benchmarks whose baseline time is
# within NEAR_FACTOR of its own, when at least MIN_NEAR_ANCHORS exist.
NEAR_FACTOR = 10.0
MIN_NEAR_ANCHORS = 3


def load_times(path):
    """name -> real_time in seconds, preferring median aggregates."""
    with open(path) as f:
        data = json.load(f)
    plain = {}
    medians = {}
    for entry in data.get("benchmarks", []):
        seconds = entry["real_time"] * TIME_UNITS[entry.get("time_unit",
                                                           "ns")]
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[entry["run_name"]] = seconds
        else:
            plain[entry.get("run_name", entry["name"])] = seconds
    return {**plain, **medians}


def is_gated(name):
    return any(name == g or name.startswith(g + "/") for g in GATED)


def anchors(baseline, current):
    """(baseline time, baseline/current ratio) of every ungated
    benchmark both files carry."""
    return [(baseline[n], baseline[n] / current[n])
            for n in set(baseline) & set(current)
            if not is_gated(n) and current[n] > 0]


def row_scale(base, anchor_list):
    """Median ratio over the anchors within NEAR_FACTOR of a row's
    baseline time `base`, when at least MIN_NEAR_ANCHORS exist, else over
    every anchor; None when there is no anchor."""
    near = [ratio for time, ratio in anchor_list
            if base / NEAR_FACTOR <= time <= base * NEAR_FACTOR]
    if len(near) < MIN_NEAR_ANCHORS:
        near = [ratio for _, ratio in anchor_list]
    return statistics.median(near) if near else None


def compare_times(args, failures, warnings):
    """The timing table: --current against --baseline, calibrated for
    machine speed unless --absolute."""
    baseline = load_times(args.baseline)
    current = load_times(args.current)

    anchor_list = [] if args.absolute else anchors(baseline, current)
    if not args.absolute and not anchor_list:
        print("no ungated benchmark in both files; falling back to "
              "absolute comparison")
    elif anchor_list:
        print(f"calibration: each row scaled by the median speed ratio of "
              f"the ungated benchmarks within {NEAR_FACTOR:g}x of its "
              f"baseline time (all {len(anchor_list)} when fewer than "
              f"{MIN_NEAR_ANCHORS})")

    print(f"{'benchmark':40} {'baseline':>12} {'current':>12} {'delta':>8} "
          f"{'scale':>6}")
    for name in sorted(set(baseline) | set(current)):
        gated = is_gated(name)
        tag = "gate" if gated else "    "
        if name not in current:
            line = f"{name:40} {'':>12} {'MISSING':>12}"
            (failures if gated else warnings).append(name + " missing")
            print(f"{line} [{tag}]")
            continue
        if name not in baseline:
            print(f"{name:40} {'NEW':>12} "
                  f"{current[name] * 1e9:11.0f}ns {'':>8} [{tag}]")
            if gated:
                # A gated benchmark without a baseline entry is an
                # ungated hot path: refresh bench/baseline.json.
                failures.append(name + " has no baseline entry")
            continue
        base = baseline[name]
        scale = row_scale(base, anchor_list) or 1.0
        cur = current[name] * scale
        delta = (cur - base) / base
        marker = ""
        if delta > args.fail and gated:
            failures.append(f"{name} regressed {delta:+.0%}")
            marker = " FAIL"
        elif delta > args.warn:
            warnings.append(f"{name} regressed {delta:+.0%}")
            marker = " WARN"
        print(f"{name:40} {base * 1e9:11.0f}n {cur * 1e9:11.0f}n "
              f"{delta:+7.1%} {scale:5.2f}x [{tag}]{marker}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="google-benchmark JSON to compare against")
    parser.add_argument("--current", required=True,
                        help="google-benchmark JSON of this build")
    parser.add_argument("--warn", type=float, default=0.10,
                        help="warn above this regression fraction")
    parser.add_argument("--fail", type=float, default=0.35,
                        help="fail gated benchmarks above this fraction")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw times, skip calibration")
    args = parser.parse_args()

    failures = []
    warnings = []
    compare_times(args, failures, warnings)

    for w in warnings:
        print(f"::warning::bench: {w}")
    if failures:
        for f in failures:
            print(f"::error::bench: {f}")
        return 1
    print("benchmark regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
