"""Tests for the Karp–Luby estimator, the FPRAS, bounds, and the naive baseline.

Sampling tests run on both trial kernels (``python`` always, ``numpy``
when importable) through the batch API.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.confidence import (
    BatchKarpLubySampler,
    Dnf,
    available_backends,
    batch_approximate_confidence,
    batch_naive_confidence,
    combine_independent,
    combine_union,
    delta_prime,
    eps_for_rounds,
    karp_luby_error_bound,
    karp_luby_sample_size,
    naive_sample_size_additive,
    probability_by_decomposition,
    rounds_for,
)
from repro.generators.hard import bipartite_2dnf, chain_dnf
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable

BACKENDS = available_backends()


def _bool_table(n: int, p: float = 0.5) -> VariableTable:
    w = VariableTable()
    for i in range(n):
        w.add(("x", i), {1: p, 0: 1 - p})
    return w


class TestBounds:
    def test_error_bound_formula(self):
        """δ(ε) = 2·e^{−m·ε²/(3|F|)} exactly."""
        assert karp_luby_error_bound(0.1, 3000, 10) == pytest.approx(
            2.0 * math.exp(-3000 * 0.01 / 30.0)
        )

    def test_error_bound_capped_and_vacuous(self):
        assert karp_luby_error_bound(0.5, 1, 100) == 1.0
        assert karp_luby_error_bound(0.0, 100, 1) == 1.0
        assert karp_luby_error_bound(0.5, 0, 1) == 1.0

    def test_sample_size_formula(self):
        """m = ⌈3|F|·ln(2/δ)/ε²⌉."""
        m = karp_luby_sample_size(0.1, 0.05, 7)
        assert m == math.ceil(3 * 7 * math.log(2 / 0.05) / 0.01)

    def test_sample_size_guarantees_bound(self):
        for eps, delta, size in [(0.1, 0.05, 3), (0.02, 0.01, 11), (0.3, 0.2, 1)]:
            m = karp_luby_sample_size(eps, delta, size)
            assert karp_luby_error_bound(eps, m, size) <= delta

    def test_sample_size_linear_in_f(self):
        assert karp_luby_sample_size(0.1, 0.1, 20) == pytest.approx(
            20 * karp_luby_sample_size(0.1, 0.1, 1), rel=0.01
        )

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            karp_luby_sample_size(0, 0.1, 1)
        with pytest.raises(ValueError):
            karp_luby_sample_size(0.1, 0, 1)

    def test_delta_prime_and_rounds_inverse(self):
        rounds = rounds_for(0.1, 0.01)
        assert delta_prime(0.1, rounds) <= 0.01
        assert delta_prime(0.1, rounds - 1) > 0.01

    def test_eps_for_rounds_inverse(self):
        eps = eps_for_rounds(0.05, 400)
        assert delta_prime(eps, 400) == pytest.approx(0.05, rel=1e-9)

    def test_combiners(self):
        assert combine_union([0.1, 0.2]) == pytest.approx(0.3)
        assert combine_union([0.9, 0.9]) == 1.0
        assert combine_independent([0.1, 0.2]) == pytest.approx(1 - 0.9 * 0.8)
        assert combine_independent([0.1]) <= combine_union([0.1]) + 1e-12


class TestSamplerDegenerateCases:
    def test_empty_dnf_is_exact_zero(self):
        w = _bool_table(1)
        for backend in BACKENDS:
            sampler = BatchKarpLubySampler(Dnf([], w), rng=0, backend=backend)
            assert sampler.is_exact
            assert sampler.estimate == 0.0
            assert sampler.error_bound(0.1) == 0.0

    def test_trivially_true_is_exact_one(self):
        w = _bool_table(1)
        for backend in BACKENDS:
            sampler = BatchKarpLubySampler(Dnf([Condition()], w), rng=0, backend=backend)
            assert sampler.is_exact
            assert sampler.estimate == 1.0

    def test_singleton_is_exact_weight(self):
        w = _bool_table(2, 0.3)
        d = Dnf([Condition({("x", 0): 1, ("x", 1): 1})], w)
        for backend in BACKENDS:
            sampler = BatchKarpLubySampler(d, rng=0, backend=backend)
            assert sampler.is_exact
            assert sampler.estimate == pytest.approx(0.09)

    def test_no_trials_error(self):
        w = _bool_table(2)
        d = Dnf([Condition({("x", 0): 1}), Condition({("x", 1): 1})], w)
        for backend in BACKENDS:
            sampler = BatchKarpLubySampler(d, rng=0, backend=backend)
            with pytest.raises(RuntimeError, match="no trials"):
                _ = sampler.estimate


class TestUnbiasedness:
    """E[X·M/m] = p — the Section 4 derivation, checked statistically."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_estimate_converges_on_2dnf(self, seed):
        d = bipartite_2dnf(4, 4, edge_probability=0.5, rng=seed)
        truth = float(probability_by_decomposition(d))
        for backend in BACKENDS:
            sampler = BatchKarpLubySampler(d, rng=seed + 100, backend=backend)
            sampler.run(30_000)
            assert sampler.estimate == pytest.approx(truth, rel=0.05)

    def test_estimate_converges_on_chain(self):
        d = chain_dnf(6)
        truth = float(probability_by_decomposition(d))
        for backend in BACKENDS:
            sampler = BatchKarpLubySampler(d, rng=9, backend=backend)
            sampler.run(30_000)
            assert sampler.estimate == pytest.approx(truth, rel=0.05)

    def test_incremental_equals_batch_distributionally(self):
        """run(5000) and five run(1000) calls draw different blocks (each
        run seeds its own) but estimate the same p, and each schedule
        replays bit for bit under its seed."""
        d = chain_dnf(4)
        truth = float(probability_by_decomposition(d))

        def incremental(backend):
            sampler = BatchKarpLubySampler(d, rng=5, backend=backend)
            for _ in range(5):
                sampler.run(1000)
            return sampler

        for backend in BACKENDS:
            a = BatchKarpLubySampler(d, rng=5, backend=backend)
            a.run(5000)
            b = incremental(backend)
            assert a.trials == b.trials == 5000
            assert a.estimate == pytest.approx(truth, rel=0.1)
            assert b.estimate == pytest.approx(truth, rel=0.1)
            assert b.estimate == incremental(backend).estimate

    def test_estimate_within_m_over_f_range(self):
        """Each trial is 0/1, so p̂ ∈ [0, M]."""
        d = chain_dnf(5)
        for backend in BACKENDS:
            sampler = BatchKarpLubySampler(d, rng=3, backend=backend)
            sampler.run(500)
            assert 0.0 <= sampler.estimate <= float(d.total_weight)


class TestFpras:
    def test_guarantee_holds_empirically(self):
        """Repeat (ε, δ) runs; relative-error failures must be ≤ δ-ish."""
        d = bipartite_2dnf(3, 3, edge_probability=0.6, rng=77)
        truth = float(probability_by_decomposition(d))
        eps, delta = 0.2, 0.2
        runs = 60
        for backend in BACKENDS:
            rng = random.Random(123)
            failures = 0
            for _ in range(runs):
                est = batch_approximate_confidence(d, eps, delta, rng, backend=backend)
                if abs(est.estimate - truth) >= eps * truth:
                    failures += 1
            # Chernoff is conservative; allow generous slack over δ·runs.
            assert failures <= max(3, int(2 * delta * runs))

    def test_metadata(self):
        d = chain_dnf(3)
        for backend in BACKENDS:
            est = batch_approximate_confidence(d, 0.3, 0.3, rng=1, backend=backend)
            assert est.samples == karp_luby_sample_size(0.3, 0.3, d.size)
            assert est.size == d.size
            assert est.eps == 0.3 and est.delta == 0.3
            assert not est.exact

    def test_exact_shortcut(self):
        w = _bool_table(1, 0.4)
        d = Dnf([Condition({("x", 0): 1})], w)
        for backend in BACKENDS:
            est = batch_approximate_confidence(d, 0.1, 0.1, 1, backend=backend)
            assert est.exact
            assert est.estimate == pytest.approx(0.4)
            assert est.error_bound(0.01) == 0.0


class TestNaiveBaseline:
    def test_converges(self):
        d = chain_dnf(4)
        truth = float(probability_by_decomposition(d))
        for backend in BACKENDS:
            est = batch_naive_confidence(d, 40_000, rng=11, backend=backend)
            assert est.estimate == pytest.approx(truth, abs=0.02)

    def test_additive_bound(self):
        for backend in BACKENDS:
            est = batch_naive_confidence(chain_dnf(3), 1000, rng=2, backend=backend)
            assert est.additive_error_bound(0.05) == pytest.approx(
                2 * math.exp(-2 * 1000 * 0.0025)
            )

    def test_sample_size(self):
        m = naive_sample_size_additive(0.01, 0.05)
        assert m == math.ceil(math.log(2 / 0.05) / (2 * 0.0001))

    def test_degenerate(self):
        w = _bool_table(1)
        for backend in BACKENDS:
            assert batch_naive_confidence(Dnf([], w), 10, 1, backend).estimate == 0.0
            assert batch_naive_confidence(Dnf([Condition()], w), 10, 1, backend).estimate == 1.0

    def test_relative_error_worse_than_karp_luby_for_rare_events(self):
        """The motivating gap: at equal budget, KL has far smaller relative
        error on a low-probability disjunction."""
        w = VariableTable()
        for i in range(4):
            w.add(("x", i), {1: 0.01, 0: 0.99})
        clauses = [Condition({("x", i): 1, ("x", (i + 1) % 4): 1}) for i in range(4)]
        d = Dnf(clauses, w)
        truth = float(probability_by_decomposition(d))
        budget = 4000
        for backend in BACKENDS:
            kl_errors, mc_errors = [], []
            for seed in range(15):
                kl = BatchKarpLubySampler(d, rng=seed, backend=backend)
                kl.run(budget)
                kl_errors.append(abs(kl.estimate - truth) / truth)
                mc = batch_naive_confidence(d, budget, rng=1000 + seed, backend=backend)
                mc_errors.append(abs(mc.estimate - truth) / truth)
            assert sum(kl_errors) < sum(mc_errors)
