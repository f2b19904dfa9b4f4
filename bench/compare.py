#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares a google-benchmark JSON result (--current) against the
committed bench/baseline.json (--baseline). Benchmarks listed in GATED
are enforced: a regression above --warn prints a warning, above --fail
the script exits non-zero and fails the CI job. Everything else is
informational. The timing comparison runs only when both files are
given; the --por, --capacity and --mc sections run on their own.

Because CI runners and developer machines differ in absolute speed, the
current times are first scaled by the median baseline/current ratio over
every ungated benchmark present in both files: machine-speed
differences cancel while regressions *relative to the rest of the code
base* remain visible, and no single noisy anchor can move every row.
Pass --absolute to compare raw numbers instead (useful when baseline and
current come from the same machine).

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

# Capacity gate for bench_capacity's JSON summary (--capacity). The
# numbers are store geometry (table + arena bytes over deterministic
# state counts), not timings, so they are machine-independent and gate
# on any runner: the per-row bytes/state ceilings catch the store
# silently growing records or slot head-room. Ceilings sit ~15% above
# the measured values so allocator-rounding changes don't flap the gate.
CAPACITY_MAX_BYTES_PER_STATE = {
    # fixture           bytes/state ceiling (measured value in brackets)
    "ope_s3_d3/seq": 41.0,   # [35.7]
    "deepring/seq": 56.0,    # [48.7]
    # the nightly soak pin (19M states, OPE row only)
    "ope_s4_d4/seq": 53.0,   # [46.1]
}

# Partial-order reduction floor for bench_por's JSON summary (--por).
# Unlike timings, these are state-count ratios of a deterministic
# reduced graph — machine-independent, so the gate holds on any runner
# (1-core containers included). Measured: ope_s3_d3 202x, wagging 87x,
# ope_gap 32x, ope_static_s2 4.7x. The floor sits at half the best OPE
# ratio — any drift of the reduction shows, a change of heuristic that
# keeps the state space two orders of magnitude down does not — and no
# fixture may explore more states reduced than full.
POR_MIN_OPE_RATIO = 100.0

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


def machine_scale(baseline, current):
    """Median baseline/current time ratio over the ungated benchmarks
    both files carry, or None when they share none."""
    ratios = [baseline[n] / current[n]
              for n in set(baseline) & set(current)
              if not is_gated(n) and current[n] > 0]
    return statistics.median(ratios) if ratios else None


def load_section(path, name, gated, failures):
    """Load one summary-JSON section, loudly.

    A flag that asks for a section must never silently pass when the
    file is absent or unreadable: a gated section records a failure (the
    gate cannot be skipped by deleting its input), an advisory section
    prints an explicit skip line so the job log shows the gap.
    """
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        if gated:
            failures.append(f"{name} section missing — gated input "
                            f"{path} unreadable ({e})")
        else:
            print(f"{name}: section missing — advisory skipped "
                  f"({path}: {e})")
        return None


def compare_times(args, failures, warnings):
    """The timing table: --current against --baseline, calibrated for
    machine speed unless --absolute."""
    baseline = load_times(args.baseline)
    current = load_times(args.current)

    scale = 1.0
    if not args.absolute:
        median = machine_scale(baseline, current)
        if median is None:
            print("no ungated benchmark in both files; falling back to "
                  "absolute comparison")
        else:
            scale = median
            print(f"calibration (median over ungated benchmarks): current "
                  f"machine runs {scale:.2f}x the baseline machine's speed")

    print(f"{'benchmark':40} {'baseline':>12} {'current':>12} {'delta':>8}")
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
              f"{delta:+7.1%} [{tag}]{marker}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="google-benchmark JSON to compare against")
    parser.add_argument("--current",
                        help="google-benchmark JSON of this build")
    parser.add_argument("--warn", type=float, default=0.10,
                        help="warn above this regression fraction")
    parser.add_argument("--fail", type=float, default=0.35,
                        help="fail gated benchmarks above this fraction")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw times, skip calibration")
    parser.add_argument("--por",
                        help="bench_por JSON summary to gate "
                             "(reduction-ratio floor)")
    parser.add_argument("--capacity",
                        help="bench_capacity JSON summary to gate "
                             "(per-fixture bytes/state ceilings)")
    parser.add_argument("--min-ope-ratio", type=float,
                        default=POR_MIN_OPE_RATIO,
                        help="state-count reduction floor on the best "
                             "OPE fixture")
    parser.add_argument("--mc",
                        help="bench_mc JSON summary to report "
                             "(advisory only; reproducibility gates in "
                             "bench_mc itself via its exit code)")
    args = parser.parse_args()
    if (args.baseline is None) != (args.current is None):
        parser.error("--baseline and --current go together")
    if args.baseline is None and not (args.por or args.capacity or args.mc):
        parser.error("nothing to compare: give --baseline and --current, "
                     "or a --por, --capacity or --mc summary")

    failures = []
    warnings = []
    if args.baseline is not None:
        compare_times(args, failures, warnings)

    por = (load_section(args.por, "por", True, failures)
           if args.por else None)
    if por is not None:
        # Ratios only, never absolute state counts: the reduced graph is
        # deterministic, so the ratios transfer across machines while
        # counts would pin fixture sizes into CI.
        best = por.get("best_ope_ratio", 0.0)
        for fx in por.get("fixtures", []):
            print(f"por {fx.get('name'):24} state ratio "
                  f"{fx.get('state_ratio', 0.0):8.2f}x   work ratio "
                  f"{fx.get('work_ratio', 0.0):6.2f}x")
            if fx.get("state_ratio", 0.0) < 1.0 - 1e-9:
                failures.append(
                    f"por: {fx.get('name')} explored MORE states reduced "
                    f"than full ({fx.get('state_ratio', 0.0):.2f}x)")
        print(f"por best OPE reduction: {best:.2f}x "
              f"(floor {args.min_ope_ratio:.2f}x)")
        if not por.get("ok", False):
            failures.append("bench_por reported a verdict mismatch "
                            "between full and reduced passes")
        if best < args.min_ope_ratio:
            failures.append(
                f"por: best OPE reduction {best:.2f}x fell below the "
                f"{args.min_ope_ratio:.2f}x floor")

    cap = (load_section(args.capacity, "capacity", True, failures)
           if args.capacity else None)
    if cap is not None:
        # Store geometry over deterministic state counts —
        # machine-independent, so the ceilings gate on any runner.
        rows = cap.get("rows", [])
        if not rows:
            failures.append("capacity: summary has no fixture rows")
        for row in rows:
            name = row.get("name", "?")
            per_state = row.get("bytes_per_state", 0.0)
            print(f"capacity {name:18} {row.get('states', 0):>10} states"
                  f"   {per_state:6.1f} B/state")
            ceiling = CAPACITY_MAX_BYTES_PER_STATE.get(name)
            if ceiling is None:
                print(f"capacity: no bytes/state ceiling pinned for "
                      f"{name} (informational row)")
            elif per_state > ceiling:
                failures.append(
                    f"capacity: {name} store grew to {per_state:.1f} "
                    f"B/state (ceiling {ceiling:.1f})")
        if not cap.get("ok", False):
            failures.append("bench_capacity reported a truncated "
                            "fixture")

    mc = (load_section(args.mc, "mc", False, failures)
          if args.mc else None)
    if mc is not None:
        # Advisory only: survival and hazard counts are facts about the
        # fault model, not regressions. The one hard contract — fixed-seed
        # reproducibility of the aggregate row — is checked inside
        # bench_mc, whose exit code gates its own CI step; here we just
        # surface the summary (and a warning if that run flagged trouble).
        ffv = mc.get("first_failure_voltage")
        print(f"mc campaign (advisory): {mc.get('runs_total')} runs over "
              f"{mc.get('grid_points')} grid points, "
              f"survival {mc.get('survival', 0.0):.1%}, "
              f"{mc.get('hazards_total', 0)} hazards, "
              f"first failure at "
              f"{f'{ffv:.2f} V' if ffv is not None else 'none'}, "
              f"{mc.get('runs_per_second', 0.0):.0f} runs/s in "
              f"{mc.get('campaign_seconds', 0.0):.2f}s, "
              f"checksum {mc.get('checksum', '?')}")
        if not mc.get("reproducible", False):
            warnings.append("bench_mc: seeded campaign was NOT "
                            "bit-reproducible (its own job step gates)")
        elif not mc.get("ok", False):
            warnings.append("bench_mc reported a problem (see its own "
                            "job step for the gate)")

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
