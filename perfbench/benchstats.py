"""The benchmark's arithmetic: percentiles, span self time, sweep scheduling
figures and the per-workload metrics derived from the workload binary's raw samples.

Pure functions only, so perfbench/test_benchstats.py can check them without
a build.
"""

import math
import statistics


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it, or None.

    With n samples, the p-th percentile leaves n * (100 - p) / 100 samples
    above it; p90 therefore needs n >= 100.
    """
    if n < 10:
        return None
    # Integer arithmetic: n * (100 - p) >= 1000  <=>  p <= 100 - 1000 / n.
    return min(99, 100 - math.ceil(1000 / n))


def percentile(values, p):
    """Linear-interpolated p-th percentile (the 'inclusive' method)."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def weighted_percentile(values, weights, p):
    """p-th percentile of `values` where value i stands for weights[i]
    samples: linear between the cumulative-weight midpoints of the sorted
    values, so it moves continuously as the values move."""
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    if total <= 0:
        return 0.0
    target = total * p / 100.0
    seen = 0.0
    prev = None  # (midpoint, value) of the previous sorted value
    for v, w in pairs:
        mid = seen + w / 2.0
        if mid >= target:
            if prev is None:
                return v
            return prev[1] + (v - prev[1]) * (target - prev[0]) / (mid - prev[0])
        prev = (mid, v)
        seen += w
    return pairs[-1][0]


def union_length(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time per layer: each span's duration minus the part of it that
    its child spans cover (overlapping children counted once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    per_layer = {}
    for s in spans:
        covered = union_length(children.get(s["id"], []), s["start"], s["end"])
        own = max(0.0, (s["end"] - s["start"]) - covered)
        per_layer[s["layer"]] = per_layer.get(s["layer"], 0.0) + own
    return per_layer


def parallel_efficiency(run_s_sum, wall_s, jobs):
    """Serial work over the capacity the sweep held: sum(run wall) / (wall x jobs)."""
    return run_s_sum / (wall_s * jobs) if wall_s > 0 and jobs > 0 else 0.0


def tail_seconds(completions, wall_s, jobs):
    """Wall time after fewer runs than workers remained: from the completion
    that left jobs - 1 runs outstanding to the end of the sweep."""
    done = sorted(completions)
    if len(done) < jobs:
        return wall_s
    return wall_s - done[len(done) - jobs]


def _ratio(a, b):
    return a / b if b else 0.0


def per_run_round_ms(passes):
    """Each run's mean round time, as the median over the passes that ran it.

    Every pass runs the same plan and lists its runs in the same order, so
    position i is the same run in every pass. The median keeps the spread of
    round cost between runs and drops the time a neighbour on a shared host
    took from one run in one pass, which would otherwise land in the tail."""
    counts = {len(p["round_ms"]) for p in passes}
    if len(counts) != 1:
        raise ValueError("passes disagree on the number of runs")
    return [median(list(times)) for times in zip(*(p["round_ms"] for p in passes))]


def end_to_end(raw):
    """The end-to-end metrics (name -> value) of one untraced workload result.

    Sweep workloads: throughputs are medians over the passes; round_ms
    percentiles are over every round of the plan, each round charged its
    run's mean round time (a sweep reports per-run totals only), taken as the
    median over the passes (per_run_round_ms).
    large_market: everything from the per-round timer of its one market."""
    m = {
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
        # Ratio of sums: replays are short, and a mean over all of them is
        # steadier than a median when the host's speed flips between modes.
        "replay_runs_per_s": _ratio(sum(r["runs"] for r in raw["replays"]),
                                    sum(r["wall_s"] for r in raw["replays"])),
    }
    if "passes" in raw:
        passes = raw["passes"]
        values = per_run_round_ms(passes)
        weights = passes[0]["round_weight"]
        m["round_ms_p50"] = weighted_percentile(values, weights, 50)
        m["round_ms_p90"] = weighted_percentile(values, weights, 90)
        m["rounds_per_s"] = median([_ratio(p["rounds"], p["wall_s"]) for p in passes])
        m["runs_per_s"] = median([_ratio(p["runs"], p["wall_s"]) for p in passes])
    else:
        rounds = raw["round_ms"]
        m["round_ms_p50"] = percentile(rounds, 50)
        m["round_ms_p90"] = percentile(rounds, 90)
        m["rounds_per_s"] = _ratio(len(rounds), sum(rounds) / 1e3)
        m["runs_per_s"] = _ratio(1.0, raw["full_run_s"])
    return m


def round_samples(raw):
    """How many rounds the round_ms percentiles rest on (on sweeps, the
    rounds of one pass: each run counts once, at its median over passes)."""
    if "passes" in raw:
        return int(sum(raw["passes"][0]["round_weight"]))
    return len(raw["round_ms"])


def per_layer(raw, untraced_rounds_per_s):
    """The per-layer metrics of one traced workload result."""
    m = {}
    reg = raw["registry"]  # the directly driven markets' timed rounds
    fails, tx_reg = reg["liquidity_failures"], reg["tx"]
    paths = reg["phase_one_word"] + reg["phase_two_word"] + reg["phase_generic"]
    m["p2p.start_s"] = median(raw["start_s"])
    m["p2p.liquidity_failure_ratio"] = _ratio(fails, tx_reg + fails)
    m["p2p.candidates_mean"] = _ratio(reg["candidates_sum"], reg["candidates_count"])
    m["p2p.path_one_word"] = _ratio(reg["phase_one_word"], paths)
    m["p2p.path_two_word"] = _ratio(reg["phase_two_word"], paths)
    m["p2p.path_generic"] = _ratio(reg["phase_generic"], paths)
    m["sim.queue_depth_mean"] = _ratio(reg["queue_depth_sum"], reg["queue_depth_count"])
    if "passes" in raw:  # sweeps: run telemetry and run metrics
        passes = raw["passes"]
        total = lambda key: sum(p[key] for p in passes)  # noqa: E731
        rounds = total("rounds")
        round_s, purchase_s = total("run_s_sum"), total("purchase_s")
        seed_s, tax_s = total("seed_s"), total("tax_s")
        peer_rounds, tx, churn = total("peer_rounds"), total("tx"), total("churn_events")
        book = {"fills": total("book_fills"), "posted": total("book_posted"),
                "expired": total("asks_expired"), "bids": total("bids_posted"),
                "resets": total("whitewash_resets"),
                "slashed": total("stake_slashed")}
        # Per pass (one sweep's worth): serial work and makespan tail.
        run_s_sum = median([p["run_s_sum"] for p in passes])
        wall = total("wall_s")
        jobs = passes[0]["jobs"]
        tail = median([
            sum(tail_seconds(w["completions"], w["wall_s"], w["workers"])
                for w in p["sweeps"])
            for p in passes])
        aggregate_ms = median([p["aggregate_ms"] for p in passes])
    else:  # one market: its timed rounds
        rounds = reg["rounds"]
        round_s = sum(raw["round_ms"]) / 1e3
        purchase_s, seed_s, tax_s = reg["purchase_s"], reg["seed_s"], reg["tax_s"]
        peer_rounds, tx, churn = reg["peer_rounds"], tx_reg, reg["churn_events"]
        book = dict.fromkeys(
            ("fills", "posted", "expired", "bids", "resets", "slashed"), 0.0)
        run_s_sum = wall = round_s
        jobs = 1
        tail = 0.0
        aggregate_ms = 0.0

    m["p2p.round_us"] = _ratio(round_s * 1e6, rounds)
    m["p2p.purchase_us"] = _ratio(purchase_s * 1e6, rounds)
    m["p2p.purchase_ns_per_peer"] = _ratio(purchase_s * 1e9, peer_rounds)
    m["p2p.seed_us"] = _ratio(seed_s * 1e6, rounds)
    m["p2p.other_us"] = _ratio((round_s - purchase_s - seed_s - tax_s) * 1e6, rounds)
    m["p2p.tx_per_round"] = _ratio(tx, rounds)
    m["p2p.churn_events_per_round"] = _ratio(churn, rounds)
    m["market.fills_per_round"] = _ratio(book["fills"], rounds)
    m["market.fill_ratio"] = _ratio(book["fills"], book["posted"])
    m["market.asks_expired_per_round"] = _ratio(book["expired"], rounds)
    m["market.bids_posted_per_round"] = _ratio(book["bids"], rounds)
    m["strategy.whitewash_resets"] = book["resets"]
    m["strategy.stake_slashed"] = book["slashed"]

    m["scenario.plan_ms"] = median(raw.get("plan_ms", [0.0]))
    m["scenario.run_s_sum"] = run_s_sum
    m["scenario.parallel_efficiency"] = parallel_efficiency(round_s, wall, jobs)
    m["scenario.tail_s"] = tail
    m["scenario.aggregate_ms"] = aggregate_ms

    farm = raw["sessions"] > 0
    if farm:
        passes = raw["passes"]
        runs = sum(p["runs"] for p in passes)
        m["scenario.farm_overhead_ms_per_run"] = _ratio(
            (wall * raw["sessions"] - round_s) * 1e3, runs)
        m["scenario.wait_retries"] = sum(p["wait_retries"] for p in passes)
        m["scenario.requeued"] = sum(p["requeued"] for p in passes)
        m["scenario.duplicates"] = sum(p["duplicates"] for p in passes)
        m["scenario.store_load_ms"] = median(raw["store_load_ms"])
        m["scenario.store_bytes"] = passes[0]["store_bytes"]
        m["scenario.journal_bytes"] = passes[0]["journal_bytes"]
    else:
        for key in ("scenario.farm_overhead_ms_per_run", "scenario.wait_retries",
                    "scenario.requeued", "scenario.duplicates",
                    "scenario.store_load_ms", "scenario.store_bytes",
                    "scenario.journal_bytes"):
            m[key] = 0.0
    m["scenario.cache_hit_ratio"] = _ratio(raw["replay_hits"], raw["replay_total"])

    threads = max(1, jobs)
    m["proc.cpu_s"] = raw["cpu_s"]
    m["proc.cpu_util"] = _ratio(raw["cpu_s"], raw["process_wall_s"] * threads)
    m["proc.minor_faults"] = raw["minor_faults"]
    m["proc.invol_ctx_switches"] = raw["invol_ctx_switches"]

    layers = self_times(raw["spans"])
    for layer in ("bench", "scenario", "graph", "p2p"):
        m["trace.self_s." + layer] = layers.get(layer, 0.0)
    traced = end_to_end(raw)["rounds_per_s"]
    m["trace.overhead_ratio"] = _ratio(untraced_rounds_per_s - traced,
                                       untraced_rounds_per_s)
    m["error_rate"] = _ratio(raw["failed"], raw["attempted"])
    return m
