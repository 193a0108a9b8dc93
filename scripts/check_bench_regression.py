#!/usr/bin/env python3
"""Perf-regression gate for the google-benchmark JSON exports.

Compares a fresh benchmark run against a committed baseline and fails
(exit 1) when any gated counter regressed beyond the tolerance. The gated
counters are the per-round wall-time readouts (round_us_per_round,
phase_us_per_round); memory (peak_rss_bytes) is reported but not gated —
RSS is a process-wide high-water mark and too machine-shaped to gate on.

Benchmarks are matched by exact name. Benchmarks present only in the run
(new benchmarks) or only in the baseline (retired ones) are reported and
skipped, so adding a benchmark never requires touching the gate.

Baselines are machine-scoped: absolute microseconds from the CI runner
class. Every comparison prints the machine class of the baseline and of
the run (num_cpus and the L2/L3 sizes from google-benchmark's "context"
block), and --update refuses to replace a baseline with a run from another
machine class. The tolerance (default 15%, overridable with --tolerance or
the BENCH_TOLERANCE env var) absorbs runner jitter; refresh the baseline
with --update after an intentional perf change.

  check_bench_regression.py --baseline bench/baselines/B.json --run out.json
  check_bench_regression.py --baseline B.json --run out.json --update
  check_bench_regression.py --self-test

--self-test proves the gate itself: it must go red on a synthetically
inflated result (+30% on a gated counter) and green on an identical one,
and --update must refuse a run from another machine class.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
import tempfile

GATED_COUNTERS = ("round_us_per_round", "phase_us_per_round")
REPORT_ONLY_COUNTERS = ("peak_rss_bytes", "bytes_per_peer")
DEFAULT_TOLERANCE = 0.15


def load_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def machine_class(doc: dict) -> str:
    """num_cpus and the L2/L3 cache sizes from a google-benchmark export's
    context block; "unknown" for a part the export does not carry."""
    ctx = doc.get("context", {})
    sizes = {}
    for cache in ctx.get("caches", []):
        if cache.get("level") in (2, 3) and cache.get("type") != "Instruction":
            sizes[cache["level"]] = f"{int(cache['size']) // 1024}K"
    return (f"num_cpus={ctx.get('num_cpus', 'unknown')} "
            f"L2={sizes.get(2, 'unknown')} L3={sizes.get(3, 'unknown')}")


def benchmarks_of(doc: dict) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        out[bench["name"]] = bench
    return out


def compare(baseline: dict[str, dict], run: dict[str, dict],
            tolerance: float) -> tuple[list[str], list[str]]:
    """Returns (failures, report_lines)."""
    failures: list[str] = []
    lines: list[str] = []
    for name in sorted(set(baseline) | set(run)):
        if name not in run:
            lines.append(f"SKIP {name}: only in baseline (retired?)")
            continue
        if name not in baseline:
            lines.append(f"SKIP {name}: only in run (new benchmark)")
            continue
        base, fresh = baseline[name], run[name]
        for counter in GATED_COUNTERS:
            if counter not in base:
                continue
            if counter not in fresh:
                failures.append(f"{name}: counter {counter} missing from run")
                continue
            b, f = float(base[counter]), float(fresh[counter])
            if b <= 0.0:
                lines.append(f"SKIP {name}/{counter}: non-positive baseline")
                continue
            ratio = f / b
            verdict = "OK"
            if ratio > 1.0 + tolerance:
                verdict = "REGRESSED"
                failures.append(
                    f"{name}: {counter} {f:.1f} vs baseline {b:.1f} "
                    f"({ratio:+.1%} > +{tolerance:.0%} tolerance)")
            lines.append(
                f"{verdict:>9} {name}/{counter}: {f:.1f} vs {b:.1f} "
                f"({ratio - 1.0:+.1%})")
        for counter in REPORT_ONLY_COUNTERS:
            if counter in base and counter in fresh:
                b, f = float(base[counter]), float(fresh[counter])
                delta = f / b - 1.0 if b > 0 else 0.0
                lines.append(
                    f"{'INFO':>9} {name}/{counter}: {f:.0f} vs {b:.0f} "
                    f"({delta:+.1%}, not gated)")
    return failures, lines


def run_gate(baseline_path: str, run_path: str, tolerance: float,
             update: bool) -> int:
    base_doc, run_doc = load_doc(baseline_path), load_doc(run_path)
    base_class, run_class = machine_class(base_doc), machine_class(run_doc)
    print(f"baseline machine: {base_class}")
    print(f"run machine:      {run_class}")
    if update:
        if base_class != run_class:
            print("ERROR: refusing --update: the run comes from another "
                  "machine class than the baseline")
            return 1
        shutil.copyfile(run_path, baseline_path)
        print(f"baseline updated: {baseline_path} <- {run_path}")
        return 0
    baseline = benchmarks_of(base_doc)
    run = benchmarks_of(run_doc)
    if not baseline:
        print(f"ERROR: no benchmarks in baseline {baseline_path}")
        return 1
    failures, lines = compare(baseline, run, tolerance)
    for line in lines:
        print(line)
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond "
              f"+{tolerance:.0%}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nPASS: no gated counter regressed beyond +{tolerance:.0%}")
    return 0


def self_test() -> int:
    """The gate gates: red on a +30% inflated counter, green on identity."""
    baseline = {
        "benchmarks": [
            {
                "name": "BM_SimulationCore/arrival_rate:1",
                "round_us_per_round": 1000.0,
                "phase_us_per_round": 400.0,
                "peak_rss_bytes": 50e6,
            },
            {
                "name": "BM_ProtocolRound/200",
                "round_us_per_round": 100.0,
                "phase_us_per_round": 60.0,
            },
        ]
    }
    base_map = {b["name"]: b for b in baseline["benchmarks"]}

    identical = copy.deepcopy(base_map)
    failures, _ = compare(base_map, identical, DEFAULT_TOLERANCE)
    if failures:
        print("SELF-TEST FAIL: identical run flagged as regression")
        return 1

    within = copy.deepcopy(base_map)
    within["BM_SimulationCore/arrival_rate:1"]["round_us_per_round"] *= 1.10
    failures, _ = compare(base_map, within, DEFAULT_TOLERANCE)
    if failures:
        print("SELF-TEST FAIL: +10% (within tolerance) flagged")
        return 1

    inflated = copy.deepcopy(base_map)
    inflated["BM_SimulationCore/arrival_rate:1"]["round_us_per_round"] *= 1.30
    failures, _ = compare(base_map, inflated, DEFAULT_TOLERANCE)
    if not failures:
        print("SELF-TEST FAIL: +30% regression NOT flagged")
        return 1
    if "round_us_per_round" not in failures[0]:
        print(f"SELF-TEST FAIL: wrong counter flagged: {failures[0]}")
        return 1

    # Memory is report-only: inflating RSS alone must stay green.
    rss_only = copy.deepcopy(base_map)
    rss_only["BM_SimulationCore/arrival_rate:1"]["peak_rss_bytes"] *= 10.0
    failures, _ = compare(base_map, rss_only, DEFAULT_TOLERANCE)
    if failures:
        print("SELF-TEST FAIL: ungated RSS counter flagged")
        return 1

    # New/retired benchmarks are skipped, never failed.
    extra = copy.deepcopy(base_map)
    extra["BM_Brand/New"] = {"name": "BM_Brand/New",
                             "round_us_per_round": 5.0}
    del extra["BM_ProtocolRound/200"]
    failures, lines = compare(base_map, extra, DEFAULT_TOLERANCE)
    if failures:
        print("SELF-TEST FAIL: unmatched benchmarks flagged")
        return 1
    if not any("only in run" in l for l in lines) or \
       not any("only in baseline" in l for l in lines):
        print("SELF-TEST FAIL: unmatched benchmarks not reported")
        return 1

    # --update keeps a baseline within its machine class.
    with tempfile.TemporaryDirectory() as tmp:
        def write(name: str, doc: dict) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return path

        def context(cpus: int, l3: int) -> dict:
            return {"num_cpus": cpus, "caches": [
                {"type": "Data", "level": 1, "size": 49152},
                {"type": "Unified", "level": 2, "size": 2097152},
                {"type": "Unified", "level": 3, "size": l3}]}

        base_doc = dict(baseline, context=context(1, 272629760))
        base_path = write("baseline.json", base_doc)
        other = write("other.json",
                      dict(baseline, context=context(4, 272629760)))
        if run_gate(base_path, other, DEFAULT_TOLERANCE, update=True) == 0:
            print("SELF-TEST FAIL: --update accepted another machine class")
            return 1
        if load_doc(base_path) != base_doc:
            print("SELF-TEST FAIL: refused --update still wrote the baseline")
            return 1
        same = write("same.json", dict(baseline, context=context(1, 272629760)))
        if run_gate(base_path, same, DEFAULT_TOLERANCE, update=True) != 0:
            print("SELF-TEST FAIL: --update refused the same machine class")
            return 1

    print("SELF-TEST PASS: gate is red on +30%, green on identity, "
          "+10%, RSS-only inflation, and unmatched benchmarks; --update "
          "refuses another machine class")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--run", help="fresh benchmark JSON export")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed fractional slowdown (default 0.15 or $BENCH_TOLERANCE)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with the run")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate flags synthetic regressions")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.run:
        parser.error("--baseline and --run are required (or --self-test)")
    return run_gate(args.baseline, args.run, args.tolerance, args.update)


if __name__ == "__main__":
    sys.exit(main())
