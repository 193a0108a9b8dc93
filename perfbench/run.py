#!/usr/bin/env python3
"""creditflow benchmark: one workload per process, metrics on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/workloads.cpp against the repository's `creditflow` library
(Release, into $CARGO_TARGET_DIR or .bench_build); later calls reuse the
build. The workload binary measures; this script turns its raw samples into the
metrics BENCHMARK.json names and checks the outputs.

Workloads: the three BENCHMARK.json lists (fig11_grid, book_grid,
farm_small_runs), and large_market, one 10^5-peer open market driven round
by round. large_market stays out of BENCHMARK.json: its round time follows
the host's memory contention (median round 167-239 ms over ten consecutive
runs on a shared 4-vCPU VM), so it is a standing local benchmark whose runs
compare only with runs made on the same machine at the same time.

Output: a metadata line (machine, build, jobs, sample counts, digests), then
as the last line {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the script
first makes an untraced run (for the tracing overhead), then a traced run
whose spans give the per-layer metrics, and writes the spans to
<build dir>/perfbench/trace-<workload>-<seed>.json.

Correctness: every run's error must be empty and its ledger conserved; each
sweep yields exactly one record per plan entry; replays must reproduce the
cold output byte for byte; and on the default seed the output digest must
equal perfbench/expected.json. Any failure sets "correct": false and the
exit code to 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # keep the checkout free of caches
sys.path.insert(0, str(HERE))
import benchstats  # noqa: E402

WORKLOADS = ("fig11_grid", "book_grid", "large_market", "farm_small_runs")
# Wall budget of the workload runs after the build (one, or two with --trace 1).
RUN_BUDGET_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build_dir(root):
    return root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(root):
    """Configure (cheap when nothing changed), then let the build tool decide
    what is stale."""
    out = build_dir(root)
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        raise RuntimeError("no creditflow source tree at " + str(root))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_workloads", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench_workloads"


def run_workload(binary, root, args, trace, deadline):
    work = build_dir(root) / "perfbench" / "work-{}-{}".format(args.workload, os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace),
             "--work-dir", str(work)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("workload binary exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cache_sizes():
    """L2/L3 sizes of cpu0 as the kernel reports them."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes["L" + level] = size
    return sizes


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(raw, args, expected_digest):
    caches = cache_sizes()
    machine = "{}x {} L2={} L3={}".format(
        raw["nproc"], cpu_model(), caches.get("L2", "?"), caches.get("L3", "?"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # Compare results only between runs with the same machine_class.
        "machine_class": machine,
        "nproc": raw["nproc"],
        "jobs": raw["jobs"],
        "sessions": raw["sessions"],
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "program_tracer_enabled": bool(raw["program_tracer_enabled"]),
        "round_samples": benchstats.round_samples(raw),
        "round_ms_tail_percentile": benchstats.tail_percentile(
            benchstats.round_samples(raw)),
        "digest": raw["digest"],
        "expected_digest": expected_digest,
        "errors": raw["errors"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = HERE.parent
    expected = json.loads((HERE / "expected.json").read_text())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    try:
        binary = build(root)
        deadline = time.monotonic() + RUN_BUDGET_S
        raw = run_workload(binary, root, args, 0, deadline)
        if args.trace:
            untraced_rounds_per_s = benchstats.end_to_end(raw)["rounds_per_s"]
            raw = run_workload(binary, root, args, 1, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
        log("failed: %s" % e)
        return 2

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if raw["build_type"] != "Release":
        log("refusing a %s build: timings need Release" % raw["build_type"])
        return 2

    expected_digest = None
    if args.seed == expected["default_seed"]:
        expected_digest = expected["digests"][args.workload]
        attempted += 1
        if raw["digest"] != expected_digest:
            failed += 1
            raw["errors"].append("output digest %s != expected %s" % (
                raw["digest"], expected_digest))

    raw["attempted"], raw["failed"] = attempted, failed
    if args.trace:
        metrics = benchstats.per_layer(raw, untraced_rounds_per_s)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        trace_path = build_dir(root) / "perfbench" / "trace-{}-{}.json".format(
            args.workload, args.seed)
        trace_path.write_text(json.dumps(raw["spans"]))
        log("spans written to %s" % trace_path)
    else:
        metrics = benchstats.end_to_end(raw)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    for err in raw["errors"]:
        log("FAILED: " + err)
    correct = failed == 0
    print(json.dumps({"meta": metadata(raw, args, expected_digest)}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
