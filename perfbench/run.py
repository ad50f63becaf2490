#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload join_conf --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload through the public API with tracing off
and prints the end-to-end metrics.  ``--trace 1`` runs the workload three
times on the same seed — untraced, traced on two workers, and traced on
one worker replaying the same ops — and prints the per-layer metrics.
Either way every answer is checked (oracle values, enclosures, digests
against a one-worker replay, repeating counts); any failure makes the
command exit non-zero.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads, sizes and the metric definitions are in ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SOURCE, "repro")):
    # Run from the root of a checkout: the program is built from its source.
    sys.exit(f"no program source at {SOURCE}/repro; run from a checkout root")
sys.path.insert(0, SOURCE)
sys.path.insert(0, HERE)

from tracing import Recorder, import_all, instrument  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

# setup_s is the median of at least this many set-ups, repeated until
# they took SETUP_MIN_S between them (cheap set-ups are repeated more).
SETUP_REPEATS = 7
SETUP_MIN_S = 2.0
# Ops run this long before timing starts, so that the memo cache and the
# pool are in their steady state; they are checked like every other op.
WARMUP_S = 4.0
MIN_TIMED_OPS = 110  # the p90 then has at least ten samples beyond it
MIN_TRACED_OPS = 24
CHECK_OPS = 12  # ops sampled for the oracle check
CHECK_TUPLES = 4  # tuples sampled per checked conf_all op
# Counts are summed over a fixed prefix (ops, or sessions per client for
# served_mix) so that the passes of one run, and runs of one seed under one
# PYTHONHASHSEED, report exactly the same numbers.
COUNT_PREFIX = {"join_conf": 40, "hard_lineage": 24, "served_mix": 2}
# Counts that depend on how two concurrent tenants interleave: the global
# cache budget evicts by cross-session recency.
TIMING_DEPENDENT = {"served_mix": {"memo_hits", "memo_misses", "budget_evictions"}}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def prefix_counts(wl, result) -> dict:
    """The program's own counts over the fixed prefix of a pass."""
    prefix = COUNT_PREFIX[wl.name]
    totals: dict = {}
    for op in wl.prefix_ops(result.ops, prefix):
        for key, value in op.counts.items():
            totals[key] = totals.get(key, 0) + value
    cache = result.info.get("prefix_cache")
    if cache is not None:
        totals["memo_hits"] = cache["hits"]
        totals["memo_misses"] = cache["misses"]
    return dict(sorted(totals.items()))


def compare_digests(wl, label: str, left, right, only_common: bool) -> list:
    """Answer digests of two passes over the same ops must agree."""
    def keyed(result):
        return {
            op.key: digest(wl.answer_key(op.kind, op.answer))
            for op in result.ops
            if op.error is None
        }

    a, b = keyed(left), keyed(right)
    keys = sorted(set(a) & set(b), key=repr) if only_common else sorted(set(a) | set(b), key=repr)
    return [(key, f"{label}: answer digest differs") for key in keys if a.get(key) != b.get(key)]


def compare_counts(wl, label: str, counts: list[dict]) -> list:
    skip = TIMING_DEPENDENT.get(wl.name, set())
    failures = []
    first = counts[0]
    for other in counts[1:]:
        for key in sorted(set(first) | set(other)):
            if key not in skip and first.get(key) != other.get(key):
                failures.append((None, f"{label}: count {key} {first.get(key)} != {other.get(key)}"))
    return failures


def op_failures(result) -> list:
    return [(op.key, f"{op.kind} raised {op.error}") for op in result.ops if op.error]


# ------------------------------------------------------------------ timed run
def timed_run(cls, seed: int, seconds: float):
    setups = []
    while True:
        wl = cls(seed)
        gc.collect()  # each set-up starts from a heap without the last one's garbage
        started = time.perf_counter()
        handle = wl.open(2)
        setups.append(time.perf_counter() - started)
        if len(setups) >= SETUP_REPEATS and sum(setups) >= SETUP_MIN_S:
            break
        wl.close(handle)
    prefix = COUNT_PREFIX[wl.name]
    timed = wl.run(handle, seconds, MIN_TIMED_OPS, prefix=prefix, warmup=WARMUP_S)
    wl.close(handle)
    rss = peak_rss_mb()

    failures = op_failures(timed)
    replay = cls(seed)
    handle = replay.open(1)
    again = replay.run(handle, 0, 0, replay=replay.replay_plan(timed.ops, prefix), prefix=prefix)
    replay.close(handle)
    failures += op_failures(again)
    failures += compare_digests(wl, "workers=2 vs workers=1 replay", timed, again, True)
    counts = prefix_counts(wl, timed)
    failures += compare_counts(wl, "prefix counts, workers=2 vs workers=1", [counts, prefix_counts(wl, again)])
    failures += wl.check(timed.ops, random.Random(seed), CHECK_OPS, CHECK_TUPLES)

    ops = timed.measured()
    by_kind: dict = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.latency)
    latencies = [op.latency for op in ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (timed.rate(lambda op: 1), "1/s"),
        "tuples_per_s": (timed.rate(lambda op: op.tuples), "1/s"),
        "latency_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "conf_all_p50_ms": (1000 * percentile(by_kind["conf_all"], 0.5), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {}
    for kind, name in (("aselect", "aselect_p50_ms"), ("topk", "topk_p50_ms"),
                       ("query", "query_p50_ms"), ("open", "session_open_p50_ms")):
        if kind in by_kind:
            extra[name] = (1000 * percentile(by_kind[kind], 0.5), "ms", len(by_kind[kind]))
    report = {
        "ops": len(timed.ops),
        "measured_ops": len(ops),
        "elapsed_s": timed.elapsed,
        "op_counts": {kind: len(v) for kind, v in sorted(by_kind.items())},
        "setup_s_each": setups,
        "prefix_counts": counts,
        "workload": wl.describe(timed),
        "extra": extra,
    }
    return metrics, report, failures, len(timed.ops)


# ----------------------------------------------------------------- traced run
def traced_run(cls, seed: int, seconds: float):
    prefix = COUNT_PREFIX[cls.name]
    budget = seconds / 3
    min_ops = max(MIN_TRACED_OPS, prefix)

    wl = cls(seed)
    handle = wl.open(2)
    plain = wl.run(handle, budget, min_ops, prefix=prefix)
    wl.close(handle)

    wl2 = cls(seed)
    handle = wl2.open(2)  # the pool forks before any wrapper is installed
    rec2 = Recorder()
    with instrument(rec2):
        traced = wl2.run(handle, budget, min_ops, rec=rec2, prefix=prefix)
        wl2.close(handle)

    wl1 = cls(seed)
    handle = wl1.open(1)
    rec1 = Recorder()
    with instrument(rec1):
        serial = wl1.run(handle, 0, 0, replay=wl1.replay_plan(traced.ops), rec=rec1, prefix=prefix)
        wl1.close(handle)

    failures = op_failures(plain) + op_failures(traced) + op_failures(serial)
    failures += compare_digests(wl, "traced workers=2 vs traced workers=1", traced, serial, False)
    failures += compare_digests(wl, "untraced vs traced", plain, traced, True)
    counts = [prefix_counts(wl, r) for r in (plain, traced, serial)]
    failures += compare_counts(wl, "prefix counts, untraced/traced/workers=1", counts)
    clauses = (rec2.counts["confidence.dnf.clauses"], rec1.counts["confidence.dnf.clauses"])
    if clauses[0] != clauses[1]:
        failures.append((None, f"DNF clauses workers=2 {clauses[0]} != workers=1 {clauses[1]}"))
    failures += wl2.check(traced.ops, random.Random(seed), CHECK_OPS, CHECK_TUPLES)

    # Tracing overhead: the same ops, untraced vs traced, over the common prefix.
    lat_plain = {op.key: op.latency for op in plain.ops}
    common = [op for op in traced.ops if op.key in lat_plain]
    overhead = 100.0 * (
        sum(op.latency for op in common) / sum(lat_plain[op.key] for op in common) - 1
    )

    out_dir = os.path.join(HERE, "traces")
    os.makedirs(out_dir, exist_ok=True)
    rec2.dump(os.path.join(out_dir, f"{cls.name}-seed{seed}-w2.jsonl"))
    rec1.dump(os.path.join(out_dir, f"{cls.name}-seed{seed}-w1.jsonl"))

    metrics = layer_metrics(rec2, rec1, traced, overhead)
    report = {
        "ops": {"untraced": len(plain.ops), "traced_w2": len(traced.ops), "traced_w1": len(serial.ops)},
        "prefix_counts": counts[0],
        "dnf_clauses": clauses[0],
        "attribution_w2": attribution(rec2),
        "attribution_w1": attribution(rec1),
        "predictions": predictions(cls.name, metrics, len(traced.ops)),
    }
    return metrics, report, failures, len(traced.ops)


def predictions(name: str, metrics: dict, n_ops: int) -> list[str]:
    """The stated per-layer predictions for this workload, held or not."""
    def verdict(statement: str, holds: bool, observed) -> str:
        return f"{'holds' if holds else 'DOES NOT HOLD'}: {statement} (observed {observed})"

    out = []
    if name != "served_mix":
        server = {k: v for k, (v, _unit) in metrics.items() if k.startswith("server.") and v}
        out.append(verdict("server.* absent on a library workload", not server, server or 0))
    if name == "join_conf":
        trials = metrics["confidence.sampler.trials"][0]
        out.append(verdict("confidence.sampler.trials = 0 on join_conf", trials == 0, trials))
        rows = metrics["urel.decode.rows"][0]
        out.append(verdict("urel.decode carries join_conf's rows (moves tuples_per_s)",
                           rows > 0, rows))
    if name == "hard_lineage":
        per_op = metrics["urel.decode.rows"][0] / max(1, n_ops)
        out.append(verdict("urel.decode.rows small on hard_lineage (<= 100 rows per op)",
                           per_op <= 100, f"{per_op:.1f} per op"))
    return out


def attribution(rec) -> dict:
    """Per-layer self time next to the op wall time; the rest is unattributed."""
    wall = sum(s[2] - s[1] for s in rec.spans if s[0] == "op")
    layers = rec.self_by_layer()
    covered = sum(layers.values())
    return {
        "op_wall_s": wall,
        "self_s": dict(sorted(layers.items())),
        "unattributed_s": wall - covered,
    }


def layer_metrics(rec, rec1, traced, overhead) -> dict:
    """The per-layer metrics: w2 trace, with kernel layers from the w1 replay."""
    c, c1 = rec.counts, rec1.counts

    def ratio(num, den):
        return num / den if den else 0.0

    waits = rec.samples.get("server.queue.wait", [])
    stats = traced.info.get("stats", {})
    scheduler = stats.get("scheduler", {})
    budget = stats.get("cache", {})
    sampler_busy = rec1.busy("confidence.sampler")
    att = attribution(rec)
    att1 = attribution(rec1)
    values = {
        "algebra.parse.calls": (rec.calls("algebra.parse"), "count"),
        "algebra.parse.busy_s": (rec.busy("algebra.parse"), "s"),
        "urel.eval.calls": (rec.calls("urel.eval"), "count"),
        "urel.eval.self_s": (rec.self_time("urel.eval"), "s"),
        "urel.eval.rows_out": (c["urel.eval.rows_out"], "count"),
        "urel.decode.busy_s": (rec.busy("urel.decode"), "s"),
        "urel.decode.rows": (c["urel.decode.rows"], "count"),
        "confidence.dnf.calls": (rec.calls("confidence.dnf"), "count"),
        "confidence.dnf.busy_s": (rec.busy("confidence.dnf"), "s"),
        "confidence.dnf.clauses": (c["confidence.dnf.clauses"], "count"),
        "confidence.exact.calls": (rec1.calls("confidence.exact"), "count"),
        "confidence.exact.busy_s": (rec1.busy("confidence.exact"), "s"),
        "confidence.bounds.calls": (rec1.calls("confidence.bounds"), "count"),
        "confidence.bounds.busy_s": (rec1.busy("confidence.bounds"), "s"),
        "confidence.bounds.point_ratio": (
            ratio(c1["confidence.bounds.points"], c1["confidence.bounds.attempts"]), "ratio"),
        "confidence.sampler.calls": (rec1.calls("confidence.sampler"), "count"),
        "confidence.sampler.busy_s": (sampler_busy, "s"),
        "confidence.sampler.trials": (c1["confidence.sampler.trials"], "count"),
        "confidence.sampler.trials_per_s": (
            ratio(c1["confidence.sampler.trials"], sampler_busy), "1/s"),
        "core.driver.calls": (rec.calls("core.driver"), "count"),
        "core.driver.busy_s": (rec.busy("core.driver"), "s"),
        "core.driver.evaluations": (c["core.driver.evaluations"], "count"),
        "core.driver.certified_ratio": (
            ratio(c["core.driver.certified"], c["core.driver.decisions"]), "ratio"),
        "core.topk.calls": (rec.calls("core.topk"), "count"),
        "core.topk.busy_s": (rec.busy("core.topk"), "s"),
        "core.topk.bounds_decided_ratio": (
            ratio(c["core.topk.bounds_decided"], c["core.topk.candidates"]), "ratio"),
        "core.topk.trials_ratio": (
            ratio(c["core.topk.total_trials"], c["core.topk.full_trials"]), "ratio"),
        "engine.route.busy_s": (rec.busy("engine.route"), "s"),
        "engine.cache.hit_ratio": (
            ratio(c["engine.cache.hits"], c["engine.cache.hits"] + c["engine.cache.misses"]),
            "ratio"),
        "engine.cache.put_busy_s": (rec.busy("engine.cache.put"), "s"),
        "engine.cache.sizing_busy_s": (rec.busy("engine.cache.sizing"), "s"),
        "engine.cache.entries": (rec.maxima["engine.cache.entries"], "count"),
        "parallel.map.calls": (rec.calls("parallel.map"), "count"),
        "parallel.map.tasks": (c["parallel.map.tasks"], "count"),
        "parallel.map.busy_s": (rec.busy("parallel.map"), "s"),
        "server.queue.wait_p50_s": (percentile(waits, 0.5) if waits else 0.0, "s"),
        "server.queue.wait_p90_s": (percentile(waits, 0.9) if waits else 0.0, "s"),
        "server.queue.peak_in_flight": (scheduler.get("peak_in_flight", 0), "count"),
        "server.queue.rejected": (scheduler.get("rejected", 0), "count"),
        "server.protocol.encode_busy_s": (rec.busy("server.protocol.encode"), "s"),
        "server.protocol.bytes": (c["server.protocol.bytes"], "bytes"),
        "server.budget.rebalance_busy_s": (rec.busy("server.budget.rebalance"), "s"),
        "server.budget.evictions": (budget.get("evictions", 0), "count"),
        "server.budget.bytes_evicted": (budget.get("bytes_evicted", 0), "bytes"),
        "server.session.open_busy_s": (rec.busy("server.session.open"), "s"),
        "trace.op_wall_s": (att["op_wall_s"], "s"),
        "trace.unattributed_s": (att["unattributed_s"], "s"),
        "trace.w1.op_wall_s": (att1["op_wall_s"], "s"),
        "trace.w1.unattributed_s": (att1["unattributed_s"], "s"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return values


# ------------------------------------------------------------------------ main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_all()  # before any pool forks
    cls = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    metrics, report, failures, attempted = run(cls, args.seed, args.seconds)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(json.dumps(report, indent=1, sort_keys=True, default=str))
    for name, (value, unit, *rest) in list(metrics.items()) + list(report.get("extra", {}).items()):
        note = f" (n={rest[0]})" if rest else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    # Failed ops: each op with a failed check once, plus one per check that
    # belongs to no single op (a count that did not repeat).
    failed_keys = {key for key, _message in failures if key is not None}
    failed = min(attempted, len(failed_keys) + sum(key is None for key, _m in failures))
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for key, message in failures:
        print(f"CHECK FAILED: op {key}: {message}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_r) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
