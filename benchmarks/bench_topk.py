"""E22 — top-k by confidence-interval racing vs. full ``confidence_all``.

``race_topk`` answers "which k tuples have the highest confidence?"
without paying the uniform Karp–Luby allocation for every candidate:
dissociation enclosures decide the easy bulk for free, survivors get a
coarse batch, and only candidates whose Lemma 5.1 intervals still
overlap the running k-th threshold keep sampling.  This benchmark runs
top-10 over a 100 048-candidate selection — 100 000 single-clause
candidates (decided at stage 1 with zero trials) plus 48 contested
K₄,₄ bipartite 2-DNFs whose budget-0 enclosures overlap across the
k-boundary — against the same (ε, δ) forced through the full
``confidence_all`` sampling path.

The racer's win is budget asymmetry: the full path's per-candidate
allocation grows as 1/ε², while the race stops each boundary duel as
soon as the intervals separate — a gap fixed by the workload's truth
ratio (0.9 vs 0.45), not by ε.  At ε = 0.02 the full path draws ~21M
trials where the race draws ~57k.

Acceptance assertions:

* ``test_topk_beats_full_confidence_all`` — the race returns exactly
  the 10 planted winners and is ≥5x faster than the full
  ``confidence_all`` baseline at equal (ε, δ), with every timing taken
  best-of-3 (each race repeat on a freshly built workload so memoized
  enclosures cannot flatter the racer).
* ``test_topk_transcripts_bit_identical_across_workers`` — the entire
  report (entries, intervals, trial counts, round count) is
  dataclass-equal between the serial run and workers ∈ {1, 2, 4}.

Tracked benchmarks: the race and its full-path twin at a CI-sized
scale — the committed baseline pins the race staying an order of
magnitude under the uniform allocation it replaces.
"""

from __future__ import annotations

import math
import random
import time

from repro.confidence.dnf import Dnf
from repro.core.topk import race_topk
from repro.engine.strategies import KarpLuby
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable
from repro.util.parallel import SERIAL_EXECUTOR, ShardExecutor

N_SINGLE = 100_000  # stage-1 fodder: exact enclosures, zero trials
N_HARD = 48  # contested K4,4 candidates racing the k-boundary
N_TOP = 10  # planted winners (truth ~0.9; the rest sit at ~0.45)
K = 10
EPS, DELTA = 0.02, 0.05
BOUNDS_BUDGET = 0  # keep the K4,4 enclosures non-exact so the race samples
SEED = 99
WORKER_MATRIX = (1, 2, 4)

# Matrix/tracked scale: same shape, small enough to pickle to a pool
# and to re-run every benchmark round.
N_SINGLE_SMALL = 2_000
EPS_SMALL = 0.05


def _k44_variable_probability(truth: float) -> float:
    """v with (1 − (1−v)⁴)² = truth — complete bipartite K₄,₄ truth dial."""
    return 1.0 - (1.0 - math.sqrt(truth)) ** 0.25


def topk_workload(n_single: int, n_hard: int):
    """(rows, dnfs): n_single single-clause candidates under 0.5, plus
    n_hard K₄,₄ candidates — N_TOP planted near 0.9, the rest near 0.45.

    The truth ratio across the k-boundary is 2 (> (1+ε)/(1−ε) for any
    ε here), so the race separates it at a coarse achieved-ε; the
    budget-0 enclosures of the two groups overlap, so bounds alone
    cannot decide and real sampling is forced.
    """
    w = VariableTable()
    rows, dnfs = [], []
    for i in range(n_single):
        p = 0.01 + 0.49 * (i / n_single)
        w.add(("s", i), {1: p, 0: 1 - p})
        rows.append((f"s{i}",))
        dnfs.append(Dnf([Condition({("s", i): 1})], w))
    for j in range(n_hard):
        truth = 0.90 - 0.002 * j if j < N_TOP else 0.45 - 0.004 * (j - N_TOP)
        v = _k44_variable_probability(truth)
        for a in range(4):
            w.add(("hx", j, a), {1: v, 0: 1 - v})
            w.add(("hy", j, a), {1: v, 0: 1 - v})
        rows.append((f"h{j}",))
        dnfs.append(
            Dnf(
                [
                    Condition({("hx", j, a): 1, ("hy", j, b): 1})
                    for a in range(4)
                    for b in range(4)
                ],
                w,
            )
        )
    return rows, dnfs


def _race(rows, dnfs, eps=EPS, executor=SERIAL_EXECUTOR):
    return race_topk(
        rows,
        dnfs,
        K,
        eps,
        DELTA,
        rng=SEED,
        backend="numpy",
        executor=executor,
        bounds_budget=BOUNDS_BUDGET,
    )


def _full(dnfs, eps=EPS):
    strategy = KarpLuby(eps, DELTA, backend="numpy")
    return strategy.compute_batch(dnfs, random.Random(SEED))


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ------------------------------------------------------------- acceptance
def test_topk_beats_full_confidence_all():
    winners = {(f"h{j}",) for j in range(N_TOP)}

    # Each race repeat gets a freshly built workload: dissociation
    # enclosures memoize on the Dnf objects, and a reused workload would
    # hand rounds 2-3 a free stage 1.  Build time stays outside the clock.
    t_race = float("inf")
    report = None
    for _ in range(3):
        rows, dnfs = topk_workload(N_SINGLE, N_HARD)
        start = time.perf_counter()
        report = _race(rows, dnfs)
        t_race = min(t_race, time.perf_counter() - start)

    assert set(report.rows) == winners
    assert report.candidates == N_SINGLE + N_HARD
    assert report.bounds_decided >= N_SINGLE  # the bulk never sampled
    assert report.sampled > 0 and report.total_trials > 0
    # The racer's raison d'être: a small fraction of the uniform budget.
    assert report.total_trials * 10 <= report.full_trials, (
        f"race drew {report.total_trials} of {report.full_trials} trials"
    )

    # The baseline path never touches the enclosures, so one workload
    # serves all repeats.
    rows, dnfs = topk_workload(N_SINGLE, N_HARD)
    t_full = _best_of(lambda: _full(dnfs))

    speedup = t_full / t_race
    assert speedup >= 5.0, (
        f"top-{K} racing only {speedup:.2f}x over confidence_all "
        f"({t_full * 1e3:.0f}ms -> {t_race * 1e3:.0f}ms)"
    )


def test_topk_transcripts_bit_identical_across_workers():
    rows, dnfs = topk_workload(N_SINGLE_SMALL, N_HARD)
    serial = _race(rows, dnfs, eps=EPS_SMALL)
    assert serial.total_trials > 0  # the contract is vacuous unsampled
    for workers in WORKER_MATRIX:
        with ShardExecutor(workers) as executor:
            sharded = _race(rows, dnfs, eps=EPS_SMALL, executor=executor)
        # Frozen dataclasses: equality covers every entry, interval
        # endpoint, trial count and round — full bit-identity.
        assert sharded == serial, f"transcript diverged at workers={workers}"


# ------------------------------------------------------------- tracked timings
def test_benchmark_topk_race(benchmark):
    """The racing path at CI scale: stage-1 pruning plus boundary duels."""
    rows, dnfs = topk_workload(N_SINGLE_SMALL, N_HARD)
    report = benchmark(lambda: _race(rows, dnfs, eps=EPS_SMALL))
    benchmark.extra_info["total_trials"] = report.total_trials
    benchmark.extra_info["rounds"] = report.rounds
    benchmark.extra_info["bounds_decided"] = report.bounds_decided


def test_benchmark_topk_full_confidence_all(benchmark):
    """The same candidates and (ε, δ) through the uniform-budget path."""
    _, dnfs = topk_workload(N_SINGLE_SMALL, N_HARD)
    reports = benchmark(lambda: _full(dnfs, eps=EPS_SMALL))
    benchmark.extra_info["candidates"] = len(reports)
