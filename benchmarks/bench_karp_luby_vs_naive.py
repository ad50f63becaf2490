"""E6 — Karp–Luby vs naive Monte Carlo (the motivation for Section 4).

Shape claim: at equal sample budget, Karp–Luby's *relative* error on
low-confidence tuples is far smaller than naive world-sampling's — the
reason the paper adopts [14] rather than plain simulation.  The gap
widens as the tuple probability shrinks.

Also measures the two trial kernels of the one sampler: at the same
(ε, δ) guarantee, `backend="numpy"` must be at least 3x faster than the
pure-Python kernel (it is typically an order of magnitude faster).
"""

from __future__ import annotations

import time

import pytest

from repro.confidence import (
    HAS_NUMPY,
    BatchKarpLubySampler,
    batch_approximate_confidence,
    batch_naive_confidence,
    probability_by_decomposition,
)
from repro.confidence.dnf import Dnf
from repro.generators.hard import bipartite_2dnf
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable


def _rare_dnf(p_var: float, n: int = 4) -> Dnf:
    w = VariableTable()
    for i in range(n):
        w.add(("x", i), {1: p_var, 0: 1 - p_var})
    clauses = [Condition({("x", i): 1, ("x", (i + 1) % n): 1}) for i in range(n)]
    return Dnf(clauses, w)


def _mean_relative_errors(p_var: float, budget: int, runs: int = 12):
    dnf = _rare_dnf(p_var)
    truth = float(probability_by_decomposition(dnf))
    kl_err, mc_err = 0.0, 0.0
    for seed in range(runs):
        kl = BatchKarpLubySampler(dnf, rng=seed)
        kl.run(budget)
        kl_err += abs(kl.estimate - truth) / truth
        mc = batch_naive_confidence(dnf, budget, rng=500 + seed)
        mc_err += abs(mc.estimate - truth) / truth
    return kl_err / runs, mc_err / runs, truth


def test_karp_luby_wins_and_gap_widens_as_p_shrinks():
    gaps = []
    for p_var in (0.3, 0.1, 0.03):
        kl, mc, truth = _mean_relative_errors(p_var, budget=3000)
        assert kl < mc, f"KL should beat naive MC at p≈{truth:.2g}"
        gaps.append(mc / max(kl, 1e-12))
    assert gaps[-1] > gaps[0]  # rarer events → bigger win


def test_benchmark_naive_mc_budget3000(benchmark):
    dnf = _rare_dnf(0.05)
    est = benchmark(batch_naive_confidence, dnf, 3000, 2, "python")
    benchmark.extra_info["estimate"] = round(est.estimate, 6)


# ----------------------------------------------------- batch backend (E6b)
def test_numpy_backend_speedup_at_equal_guarantee():
    """Acceptance: ≥3x over the pure-Python kernel at the same (ε, δ)."""
    if not HAS_NUMPY:
        pytest.skip("numpy backend not available")
    dnf = bipartite_2dnf(4, 4, edge_probability=0.6, rng=9)
    eps, delta = 0.1, 0.01  # |F| ≈ 10 ⇒ m ≈ 16k trials per run

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    t_python = best_of(
        lambda: batch_approximate_confidence(dnf, eps, delta, 1, backend="python")
    )
    t_numpy = best_of(
        lambda: batch_approximate_confidence(dnf, eps, delta, 1, backend="numpy")
    )
    speedup = t_python / t_numpy
    assert speedup >= 3.0, f"numpy backend only {speedup:.1f}x faster"


@pytest.mark.parametrize("backend", ["numpy", "python"])
def test_benchmark_karp_luby_batch_budget3000(benchmark, backend):
    if backend == "numpy" and not HAS_NUMPY:
        pytest.skip("numpy backend not available")
    dnf = _rare_dnf(0.05)

    def run():
        sampler = BatchKarpLubySampler(dnf, rng=1, backend=backend)
        sampler.run(3000)
        return sampler.estimate

    estimate = benchmark(run)
    benchmark.extra_info["estimate"] = round(estimate, 6)
    benchmark.extra_info["backend"] = backend
