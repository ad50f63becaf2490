"""Vectorized batch Monte Carlo trials — Proposition 4.2 at block granularity.

The Karp–Luby FPRAS (Proposition 4.2: m = ⌈3·|F|·ln(2/δ)/ε²⌉ trials give
Pr[|p̂ − p| ≥ ε·p] ≤ δ) and the naive world-sampling baseline both reduce
to drawing many independent trials over the same disjunction F.  This
module is the engine's one implementation of both: it draws a *block* of
trials at once and evaluates the clauses against the whole block:

* variables are integer-coded against their W-table domains, so a block
  of m world assignments is an (m × |vars(F)|) integer matrix sampled
  column-by-column through each variable's cumulative distribution;
* clause satisfaction is one equality comparison per (variable, value)
  pair, AND-reduced per clause over the whole block — the Definition 4.1
  "smallest-index consistent member" test becomes an ``argmax`` over the
  (m × |F|) satisfaction matrix;
* the estimator's statistics (X positives out of m trials) accumulate
  across blocks, preserving the *incremental* draw-more-trials contract
  that the Figure 3 predicate-approximation algorithm depends on.

Two interchangeable kernels implement the block primitives: ``numpy``
(used automatically when NumPy is importable — install the package's
``fast`` extra) and a dependency-free ``python`` kernel that produces
the same statistics one trial at a time.  Both are deterministic under a
fixed seed, though their streams differ; estimates agree exactly on
degenerate disjunctions and within the Proposition 4.2 (ε, δ) bounds on
sampled ones.

:func:`shared_block_confidences` additionally evaluates *many*
disjunctions against one shared block of world samples — the draw-once,
evaluate-everything pattern behind ``ProbDB.confidence_all``.

Every entry point runs its trial budget through a
:class:`~repro.util.parallel.ShardExecutor` (by default the serial
:data:`~repro.util.parallel.SERIAL_EXECUTOR`): the budget is cut into
blocks by the executor's worker-count-independent plan, each block draws
from a generator seeded by its *block index*
(:func:`~repro.util.parallel.shard_seed`), and the block statistics merge
by trial-count weighting (positives and trials simply sum, so the
estimate X·M/m is the weighted mean of the block estimates).  Results
are bit-identical for every worker count.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate

from repro.confidence import bounds
from repro.confidence.dnf import Dnf
from repro.confidence.karp_luby import KarpLubyEstimate
from repro.confidence.naive_mc import NaiveEstimate
from repro.urel.conditions import Var
from repro.util.backends import (
    HAS_NUMPY,
    BackendUnavailableError,
    available_backends,
    default_backend,
    np as _np,
    resolve_backend,
)
from repro.util.parallel import SERIAL_EXECUTOR, ShardExecutor, shard_seed
from repro.util.rng import ensure_rng

__all__ = [
    "HAS_NUMPY",
    "BackendUnavailableError",
    "available_backends",
    "default_backend",
    "resolve_backend",
    "BatchKarpLubySampler",
    "batch_approximate_confidence",
    "batch_naive_confidence",
    "shared_block_confidences",
]


# --------------------------------------------------------------------------
# Integer coding of a disjunction against its W-table domains
# --------------------------------------------------------------------------


class _EncodedDnf:
    """A :class:`Dnf` lowered to integer codes for block evaluation.

    ``variables`` fixes a column order (sorted by ``repr``); each
    variable's domain values map to codes ``0..k−1`` in the W table's
    iteration order, so sampling a value is one inverse-CDF lookup: the
    code of uniform ``u`` is ``bisect_right(value_bounds[i], u)`` over
    the cumulative probabilities minus the last (so a float sum short
    of 1 still yields the last code).  ``clause_bounds`` does the same
    for the member choice over the clause weights.
    Members are sorted by ``repr`` too, carrying their weights: member
    order is Definition 4.1's "smallest index" tie-break, and the order
    a DNF's conditions arrive in follows ``frozenset`` iteration, which
    changes with the hash seed.  Clause (variable, value) pairs become
    (column, code) pairs; a value outside its variable's domain gets the
    sentinel code −1, which no sampled world ever matches (the clause
    has weight 0 and is unsatisfiable).  The encoding keeps no reference
    to the :class:`Dnf` itself, so a trial-block task pickles codes and
    float bounds only.
    """

    __slots__ = (
        "variables",
        "value_bounds",
        "member_pairs",
        "weights",
        "clause_bounds",
        "total_weight",
    )

    def __init__(self, dnf: Dnf, variables: Sequence[Var] | None = None):
        """Encode ``dnf``; ``variables`` overrides the sorted column order."""
        self.variables = (
            sorted(dnf.variables, key=repr) if variables is None else list(variables)
        )
        var_index = {v: i for i, v in enumerate(self.variables)}
        self.value_bounds: list[list[float]] = []
        value_codes: list[dict] = []
        for var in self.variables:
            dist = dnf.w.distribution(var)
            self.value_bounds.append(list(accumulate(float(p) for p in dist.values()))[:-1])
            value_codes.append({value: code for code, value in enumerate(dist)})
        members = sorted(zip(dnf.members, dnf.weights), key=lambda mw: repr(mw[0]))
        self.member_pairs: list[tuple[tuple[int, int], ...]] = [
            tuple(
                (var_index[var], value_codes[var_index[var]].get(value, -1))
                for var, value in sorted(member.items(), key=repr)
            )
            for member, _weight in members
        ]
        self.weights = [float(p) for _member, p in members]
        cumulative = list(accumulate(self.weights))
        self.clause_bounds = cumulative[:-1]
        self.total_weight = cumulative[-1] if cumulative else 0.0


# --------------------------------------------------------------------------
# Trial by trial (the python kernel, and the numpy kernel's small blocks)
# --------------------------------------------------------------------------


def _codes(enc: _EncodedDnf, uniforms) -> list[int]:
    """One world: variable ``i``'s code by inverse CDF of ``uniforms[i]``."""
    return [bisect_right(bounds, u) for bounds, u in zip(enc.value_bounds, uniforms)]


def _any_holds(members: Sequence[tuple[tuple[int, int], ...]], codes: list[int]) -> bool:
    """Whether some clause holds in the world ``codes`` (stops at the first)."""
    for pairs in members:
        for column, code in pairs:
            if codes[column] != code:
                break
        else:
            return True
    return False


def _karp_luby_positives(enc: _EncodedDnf, trials) -> int:
    """Count positives among Definition 4.1 trials, one per iteration.

    Each trial is a row of uniforms: the first picks the clause, the
    rest sample the variables.  The chosen clause holds in its own
    extension by construction, so the trial succeeds iff no clause of
    smaller index holds: only that prefix is tested, and the test stops
    at the first clause that holds.
    """
    positives = 0
    members = enc.member_pairs
    for row in trials:
        choice = bisect_right(enc.clause_bounds, row[0] * enc.total_weight)
        codes = _codes(enc, row[1:])
        for column, code in members[choice]:
            codes[column] = code
        if not _any_holds(members[:choice], codes):
            positives += 1
    return positives


def _py_karp_luby_block(enc: _EncodedDnf, n: int, rng: random.Random) -> int:
    draw = rng.random
    width = 1 + len(enc.variables)
    return _karp_luby_positives(enc, ([draw() for _ in range(width)] for _ in range(n)))


def _py_naive_block(enc: _EncodedDnf, n: int, rng: random.Random) -> int:
    draw = rng.random
    width = len(enc.variables)
    return sum(
        _any_holds(enc.member_pairs, _codes(enc, [draw() for _ in range(width)]))
        for _ in range(n)
    )


# --------------------------------------------------------------------------
# NumPy block primitives
# --------------------------------------------------------------------------


def _np_small_block(enc: _EncodedDnf, n: int) -> bool:
    """Whether ``n`` trials are cheaper evaluated one by one than as arrays.

    Array operations cost a few microseconds per clause and per variable
    at any block size, about what one trial costs in Python; a Figure 3
    refinement round is only |F| trials.
    """
    return n < 16 + 2 * (len(enc.member_pairs) + len(enc.variables))


def _np_codes(enc: _EncodedDnf, uniforms):
    """An (n × |vars|) block of world assignments from (|vars| × n) uniforms."""
    block = _np.empty((uniforms.shape[1], len(enc.variables)), dtype=_np.int64)
    for column, bounds in enumerate(enc.value_bounds):
        block[:, column] = _np.searchsorted(_np.asarray(bounds), uniforms[column], side="right")
    return block


def _np_satisfaction(enc: _EncodedDnf, block):
    """The (n × |F|) clause-satisfaction matrix for a block of worlds."""
    n = block.shape[0]
    size = len(enc.member_pairs)
    sat = _np.empty((n, size), dtype=bool)
    for j, pairs in enumerate(enc.member_pairs):
        if not pairs:
            sat[:, j] = True
            continue
        m = block[:, pairs[0][0]] == pairs[0][1]
        for column, code in pairs[1:]:
            m &= block[:, column] == code
        sat[:, j] = m
    return sat


def _np_karp_luby_block(enc: _EncodedDnf, n: int, nrng) -> int:
    """Count positives among ``n`` Definition 4.1 trials, drawn as one block.

    Row 0 of the uniforms picks each trial's member (∝ p_f, inverse CDF
    over the clause weights); the other rows sample the variables, and
    each trial's chosen-clause columns are then overwritten with the
    clause's fixed codes.  The chosen clause is consistent by
    construction, so ``argmax`` over the satisfaction matrix finds a
    first ``True`` index and the trial succeeds iff it is the choice.
    """
    uniforms = nrng.random((1 + len(enc.variables), n))
    if _np_small_block(enc, n):
        # Same draws, same positives: only the evaluation order differs.
        return _karp_luby_positives(enc, uniforms.T.tolist())
    u = uniforms[0] * enc.total_weight
    choice = _np.searchsorted(_np.asarray(enc.clause_bounds), u, side="right")
    block = _np_codes(enc, uniforms[1:])
    for j, pairs in enumerate(enc.member_pairs):
        rows = choice == j
        if not rows.any():
            continue
        for column, code in pairs:
            block[rows, column] = code
    sat = _np_satisfaction(enc, block)
    first = sat.argmax(axis=1)
    return int((first == choice).sum())


def _np_naive_block(enc: _EncodedDnf, n: int, nrng) -> int:
    """Count the worlds (out of ``n`` sampled) satisfying some clause."""
    block = _np_codes(enc, nrng.random((len(enc.variables), n)))
    return int(_np_satisfaction(enc, block).any(axis=1).sum())


# --------------------------------------------------------------------------
# Shard tasks: per-block trial workers (module level, so they pickle)
# --------------------------------------------------------------------------


def _karp_luby_trial_block(enc: _EncodedDnf, n: int, seed: int, backend: str) -> int:
    """Count positives among ``n`` Definition 4.1 trials from a seeded block."""
    if backend == "numpy":
        return _np_karp_luby_block(enc, n, _np.random.default_rng(seed))
    return _py_karp_luby_block(enc, n, random.Random(seed))


def _naive_trial_block(enc: _EncodedDnf, n: int, seed: int, backend: str) -> int:
    """Satisfying worlds among ``n`` sampled, from a seeded block."""
    if backend == "numpy":
        return _np_naive_block(enc, n, _np.random.default_rng(seed))
    return _py_naive_block(enc, n, random.Random(seed))


def _shared_trial_block(
    encoders: list[_EncodedDnf], n: int, seed: int, backend: str
) -> list[int]:
    """Per-disjunction positives against ONE seeded block of ``n`` worlds.

    The block is shared *within* the task (every DNF sees the same
    worlds, preserving the correlation structure of
    :func:`shared_block_confidences`); across tasks the blocks are
    independent and their counts merge by trial-count weighting.
    """
    width = len(encoders[0].variables)
    if backend == "numpy":
        uniforms = _np.random.default_rng(seed).random((width, n))
        block = _np_codes(encoders[0], uniforms)
        return [int(_np_satisfaction(enc, block).any(axis=1).sum()) for enc in encoders]
    draw = random.Random(seed).random
    counts = [0] * len(encoders)
    for _ in range(n):
        codes = _codes(encoders[0], [draw() for _ in range(width)])
        for k, enc in enumerate(encoders):
            counts[k] += _any_holds(enc.member_pairs, codes)
    return counts


# --------------------------------------------------------------------------
# The incremental batch sampler (Figure 3's draw-more-trials contract)
# --------------------------------------------------------------------------


class BatchKarpLubySampler:
    """Incremental Karp–Luby estimation (Definition 4.1) with block-drawn trials.

    Degenerate disjunctions are answered exactly without sampling:

    * empty F                          → p = 0,
    * F containing the empty condition → p = 1,
    * |F| = 1                          → p = p_f  (the estimator would
      always return 1, so p̂ = M = p_f deterministically).

    The readout API is ``estimate``/``trials``/``positives``/
    ``error_bound``/``snapshot``.  :meth:`run` cuts each requested budget
    into blocks by the ``executor``'s (worker-count-independent) trial
    plan, seeds block ``i`` from ``(one parent draw, i)``, and sums the
    block positives — the trial-count-weighted merge of the block
    estimates — so estimates are bit-identical for every worker count.
    The Figure 3 algorithm refines by repeatedly calling ``run(|F|)``.
    """

    def __init__(
        self,
        dnf: Dnf,
        rng: random.Random | int | None = None,
        backend: str | None = None,
        executor: ShardExecutor = SERIAL_EXECUTOR,
    ):
        """Set up block sampling for ``dnf``; ``rng`` seeds the block streams."""
        self.dnf = dnf
        self.backend = resolve_backend(backend)
        self.rng = ensure_rng(rng)
        self.executor = executor
        self.trials = 0
        self.positives = 0
        self._enc = _EncodedDnf(dnf)
        if dnf.is_trivially_true:
            self._exact_value: float | None = 1.0
        elif dnf.is_empty:
            self._exact_value = 0.0
        elif dnf.size == 1:
            self._exact_value = self._enc.total_weight
        else:
            self._exact_value = None

    @property
    def is_exact(self) -> bool:
        """True when the confidence is known exactly without sampling."""
        return self._exact_value is not None

    def run(self, n_trials: int) -> None:
        """Accumulate ``n_trials`` further Definition 4.1 trials."""
        if n_trials <= 0 or self.is_exact:
            return
        base = self.rng.getrandbits(64)
        blocks = self.executor.plan_trials(n_trials)
        self.positives += sum(
            self.executor.map(
                _karp_luby_trial_block,
                [
                    (self._enc, count, shard_seed(base, i), self.backend)
                    for i, count in enumerate(blocks)
                ],
            )
        )
        self.trials += n_trials

    @property
    def estimate(self) -> float:
        """p̂ = X·M/m (or the exact value for degenerate disjunctions)."""
        if self._exact_value is not None:
            return self._exact_value
        if self.trials == 0:
            raise RuntimeError("no trials drawn yet")
        return self.positives * self._enc.total_weight / self.trials

    def error_bound(self, eps: float) -> float:
        """δ(ε) = 2·e^{−m·ε²/(3|F|)} for the trials drawn so far."""
        if self._exact_value is not None:
            return 0.0
        return bounds.karp_luby_error_bound(eps, self.trials, self.dnf.size)

    def snapshot(self, eps: float | None = None, delta: float | None = None) -> KarpLubyEstimate:
        """Freeze the current state into a :class:`KarpLubyEstimate`."""
        return KarpLubyEstimate(
            estimate=self.estimate,
            samples=self.trials,
            positives=self.positives,
            total_weight=self._enc.total_weight,
            size=self.dnf.size,
            eps=eps,
            delta=delta,
            exact=self._exact_value is not None,
        )


def batch_approximate_confidence(
    dnf: Dnf,
    eps: float,
    delta: float,
    rng: random.Random | int | None = None,
    backend: str | None = None,
    executor: ShardExecutor = SERIAL_EXECUTOR,
) -> KarpLubyEstimate:
    """The (ε, δ) FPRAS of Proposition 4.2.

    Runs m = ⌈3·|F|·ln(2/δ)/ε²⌉ Karp–Luby trials, as blocks merged by
    trial-count weighting (see :class:`BatchKarpLubySampler`), and
    returns p̂ with Pr[|p̂ − p| ≥ ε·p] ≤ δ.
    """
    sampler = BatchKarpLubySampler(dnf, rng, backend=backend, executor=executor)
    if sampler.is_exact:
        return sampler.snapshot(eps, delta)
    sampler.run(bounds.karp_luby_sample_size(eps, delta, dnf.size))
    return sampler.snapshot(eps, delta)


def batch_naive_confidence(
    dnf: Dnf,
    samples: int,
    rng: random.Random | int | None = None,
    backend: str | None = None,
    executor: ShardExecutor = SERIAL_EXECUTOR,
) -> NaiveEstimate:
    """Naive world-sampling estimate of p from ``samples`` sampled worlds."""
    generator = ensure_rng(rng)
    if dnf.is_trivially_true:
        return NaiveEstimate(1.0, 0, 0)
    if dnf.is_empty or samples <= 0:
        return NaiveEstimate(0.0, 0, 0)
    enc = _EncodedDnf(dnf)
    concrete = resolve_backend(backend)
    base = generator.getrandbits(64)
    positives = sum(
        executor.map(
            _naive_trial_block,
            [
                (enc, count, shard_seed(base, i), concrete)
                for i, count in enumerate(executor.plan_trials(samples))
            ],
        )
    )
    return NaiveEstimate(positives / samples, samples, positives)


def shared_block_confidences(
    dnfs: Sequence[Dnf],
    samples: int,
    rng: random.Random | int | None = None,
    backend: str | None = None,
    executor: ShardExecutor = SERIAL_EXECUTOR,
) -> list[NaiveEstimate]:
    """Estimate every disjunction against ONE shared block of worlds.

    Draws ``samples`` world assignments over the union of the
    disjunctions' variables once, then evaluates each DNF's clauses
    against the whole block — the batched-query pattern of
    ``ProbDB.confidence_all``: the sampling cost is paid once per query,
    not once per result tuple.  Estimates for degenerate disjunctions
    are exact.  All disjunctions must share one W table.

    The sample budget is cut into blocks by the executor's plan (each
    still shared by every DNF *within* the block, so the per-block
    correlation structure is preserved); per-DNF positives sum across
    blocks — the trial-count-weighted merge.
    """
    generator = ensure_rng(rng)
    concrete = resolve_backend(backend)
    results: list[NaiveEstimate | None] = [None] * len(dnfs)
    sampled: list[int] = []
    for i, dnf in enumerate(dnfs):
        if dnf.is_trivially_true:
            results[i] = NaiveEstimate(1.0, 0, 0)
        elif dnf.is_empty:
            results[i] = NaiveEstimate(0.0, 0, 0)
        else:
            sampled.append(i)
    if not sampled or samples <= 0:
        return [r if r is not None else NaiveEstimate(0.0, 0, 0) for r in results]

    w = dnfs[sampled[0]].w
    union_vars: set[Var] = set()
    for i in sampled:
        if dnfs[i].w is not w:
            raise ValueError("shared_block_confidences needs one common W table")
        union_vars |= dnfs[i].variables
    variables = sorted(union_vars, key=repr)
    encoders = [_EncodedDnf(dnfs[i], variables) for i in sampled]

    base = generator.getrandbits(64)
    per_block = executor.map(
        _shared_trial_block,
        [
            (encoders, count, shard_seed(base, i), concrete)
            for i, count in enumerate(executor.plan_trials(samples))
        ],
    )
    for k, i in enumerate(sampled):
        positives = sum(block[k] for block in per_block)
        results[i] = NaiveEstimate(positives / samples, samples, positives)
    return results
