"""E4 — Theorem 3.4 / Propositions 3.3, 3.5: the complexity landscape.

Shape claims regenerated:

* exact confidence on the succinct representation grows *exponentially*
  on the #P-hard bipartite 2-DNF family (enumeration solver — the
  literal #P oracle);
* the Karp–Luby FPRAS at fixed (ε, δ) grows *polynomially* (linearly in
  |F| for fixed rounds-per-clause) on the same family, so a crossover
  appears at moderate sizes;
* purely-relational operations on U-relations (Prop 3.3) scale benignly;
* on the nonsuccinct representation, conf is cheap (Prop 3.5) — its cost
  is linear in the (exponentially many) worlds, paid by the
  representation instead of the operator.
"""

from __future__ import annotations

import time

from repro.confidence import batch_approximate_confidence, probability_by_enumeration
from repro.generators.hard import bipartite_2dnf


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_exact_exponential_vs_karp_luby_polynomial_shape():
    """Exact enumeration blows up with variable count; KL stays flat."""
    sizes = [3, 5, 7, 9]
    exact_times, kl_times = [], []
    for n in sizes:
        dnf = bipartite_2dnf(n, n, edge_probability=0.5, rng=n)
        exact_times.append(_time(lambda d=dnf: probability_by_enumeration(d)))
        kl_times.append(
            _time(lambda d=dnf: batch_approximate_confidence(d, 0.3, 0.3, rng=1))
        )
    # Exponential growth: the largest exact run dwarfs the smallest by a
    # factor reflecting ~4^Δn world growth (allow generous slack).
    assert exact_times[-1] > 20 * exact_times[0]
    # KL grows at most polynomially: nowhere near the exact blowup ratio.
    kl_ratio = kl_times[-1] / max(kl_times[0], 1e-9)
    exact_ratio = exact_times[-1] / max(exact_times[0], 1e-9)
    assert kl_ratio < exact_ratio / 4
    # Crossover: at the largest size the FPRAS is faster than exact.
    assert kl_times[-1] < exact_times[-1]


def test_benchmark_exact_enumeration_n6(benchmark):
    dnf = bipartite_2dnf(6, 6, edge_probability=0.5, rng=6)
    result = benchmark(probability_by_enumeration, dnf)
    assert 0 < result < 1
    benchmark.extra_info["variables"] = len(dnf.variables)


def test_benchmark_karp_luby_n6(benchmark):
    dnf = bipartite_2dnf(6, 6, edge_probability=0.5, rng=6)
    est = benchmark(batch_approximate_confidence, dnf, 0.2, 0.2, 7, "python")
    assert 0 < est.estimate < 1
    benchmark.extra_info["samples"] = est.samples


def test_benchmark_positive_ra_on_urelations(benchmark):
    """Prop 3.3: LOGSPACE ops — here: a join over conditioned relations."""
    from repro.generators.tpdb import random_tuple_independent
    from repro.algebra.builder import query, rel
    from repro.urel import UEvaluator

    db = random_tuple_independent("R", 300, rng=1, columns=("A", "B"))
    from repro.generators.tpdb import add_tuple_independent
    import random as _random

    rng = _random.Random(2)
    add_tuple_independent(
        db,
        "S",
        ("B", "C"),
        [((f"a{rng.randrange(8)}", f"c{i}"), 0.5) for i in range(300)],
    )
    q = query(rel("R").join(rel("S")).project(["A", "C"]))

    def run():
        return UEvaluator(db, copy_db=True).evaluate(q).relation

    out = benchmark(run)
    benchmark.extra_info["join_output_rows"] = len(out)


def test_nonsuccinct_conf_is_cheap_per_world():
    """Prop 3.5: conf on explicit worlds is one linear aggregation."""
    from repro.generators.tpdb import tuple_independent
    from repro.urel import enumerate_worlds

    db = tuple_independent("R", ("A",), [((f"t{i}",), 0.5) for i in range(10)])
    pwdb = enumerate_worlds(db, max_worlds=2048)  # 1024 worlds
    start = time.perf_counter()
    conf = pwdb.confidence_relation("R")
    elapsed = time.perf_counter() - start
    assert len(conf) == 10
    assert elapsed < 5.0  # linear pass over 1024 worlds × 10 tuples
