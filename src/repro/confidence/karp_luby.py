"""The Karp–Luby Monte Carlo estimator and FPRAS for tuple confidence.

Section 4 of the paper, after Karp & Luby (FOCS 1983).  Given a
disjunction F of partial functions with member weights p_f and
M = Σ p_f, one trial of the estimator (Definition 4.1):

1. choose f ∈ F with probability p_f / M,
2. extend f to a total assignment f* by sampling every other variable
   from W,
3. output 1 iff f is the *smallest-index* member of F consistent
   with f*.

The trial mean is an unbiased estimator of p/M, so p̂ = X·M/m.  Since
p/M ≥ 1/|F|, the Chernoff bound gives δ(ε) ≤ 2·e^{−m·ε²/(3|F|)} and
m = ⌈3·|F|·ln(2/δ)/ε²⌉ trials suffice for an (ε, δ) guarantee — a fully
polynomial-time randomized approximation scheme (Proposition 4.2).

The estimator itself is :class:`repro.confidence.batch.BatchKarpLubySampler`
(incremental: draw more trials later and re-read the estimate, as the
Figure 3 predicate-approximation algorithm requires) and the FPRAS is
:func:`repro.confidence.batch.batch_approximate_confidence`; this module
holds their result type.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.confidence import bounds

__all__ = ["KarpLubyEstimate"]


@dataclass(frozen=True)
class KarpLubyEstimate:
    """Result of a Karp–Luby run.

    ``estimate`` is p̂ = X·M/m; ``eps``/``delta`` echo the requested
    guarantee when the run came from
    :func:`~repro.confidence.batch.batch_approximate_confidence`
    (``None`` for manual runs); ``exact`` marks degenerate disjunctions
    (empty, trivially true, or single-member) where p̂ is exactly p.
    """

    estimate: float
    samples: int
    positives: int
    total_weight: float
    size: int
    eps: float | None = None
    delta: float | None = None
    exact: bool = False

    def error_bound(self, eps: float) -> float:
        """δ(ε) for this run's sample count (0 when the value is exact)."""
        if self.exact:
            return 0.0
        return bounds.karp_luby_error_bound(eps, self.samples, self.size)
