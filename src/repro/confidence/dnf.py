"""Disjunctions of partial functions — the objects confidence is computed on.

"The confidence of tuple t for relation R represented in a U-relational
database is the weight of F = {f | ⟨f, t⟩ ∈ U_R}" (Section 4): the
probability that at least one of the partial functions in F is satisfied
by the random world.  This module packages F together with the W table,
precomputing the quantities the Karp–Luby estimator needs (the member
weights p_f, their sum M, and the fixed member order).  A pickled
disjunction (a shard task's payload) carries only the part of W that
its own variables need.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from repro.urel.conditions import Condition, Var
from repro.urel.variables import VariableError, VariableTable
from repro.worlds.database import Prob

__all__ = ["Dnf"]


class Dnf:
    """A disjunction F of partial functions over a variable table W.

    Duplicate members are removed, preserving first occurrence.  The
    Karp–Luby sampler does not rely on this order: it sorts the members
    for Definition 4.1's "smallest index" test itself (see
    :mod:`repro.confidence.batch`).
    """

    __slots__ = ("w", "members", "_weights", "_variables", "_bounds")

    def __init__(self, conditions: Iterable[Condition], w: VariableTable):
        """Build the disjunction from ``conditions`` over W table ``w``."""
        self.w = w
        # Lazy per-budget memo for repro.confidence.dissociation — the
        # bound interval is a pure function of (members, W), so repeated
        # routing/pruning questions about one disjunction are free.
        self._bounds = None
        seen: set[Condition] = set()
        members: list[Condition] = []
        for cond in conditions:
            if cond not in seen:
                seen.add(cond)
                members.append(cond)
        self.members: tuple[Condition, ...] = tuple(members)
        # Only the samplers read the member weights; exact solvers and
        # memo hits never do, so they are computed on first use.
        self._weights: tuple[Prob, ...] | None = None
        variables: set[Var] = set()
        for f in self.members:
            variables |= f.variables
        for var in variables:
            if var not in w:
                raise VariableError(f"unknown variable {var!r}")
        self._variables = frozenset(variables)

    # ------------------------------------------------------------- metrics
    def __len__(self) -> int:
        """The member count |F| (same as :attr:`size`)."""
        return len(self.members)

    @property
    def size(self) -> int:
        """|F| — drives the Karp–Luby sample-size bound (Section 4)."""
        return len(self.members)

    @property
    def weights(self) -> tuple[Prob, ...]:
        """The member weights p_f, in member order (Equation 2)."""
        if self._weights is None:
            self._weights = tuple(self.w.weight(f) for f in self.members)
        return self._weights

    @property
    def variables(self) -> frozenset[Var]:
        """The variables mentioned by any member condition."""
        return self._variables

    @property
    def total_weight(self) -> Prob:
        """M = Σ_{f ∈ F} p_f (Section 4)."""
        total: Prob = Fraction(0)
        for p in self.weights:
            total = total + p
        return total

    @property
    def is_empty(self) -> bool:
        """An empty disjunction is false everywhere: probability 0."""
        return not self.members

    @property
    def is_trivially_true(self) -> bool:
        """Whether F contains the empty condition (every world satisfies it)."""
        return any(f.is_empty for f in self.members)

    # ------------------------------------------------------------- semantics
    def evaluate(self, world: Mapping[Var, object]) -> bool:
        """Is the disjunction satisfied by total assignment ``world``?"""
        return any(f.evaluate(world) for f in self.members)

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        """Pickle members, weights (if computed), bounds memo and slice of W.

        Shard tasks pickle DNFs, and the session W table can hold far
        more variables than one disjunction mentions: only the variables
        of F travel, in ``repr`` order, so equal DNFs pickle equally.
        The slice's variables are exactly F's, so they are not sent twice.
        """
        w = self.w.restrict(sorted(self._variables, key=repr))
        return (self.members, self._weights, self._bounds, w)

    def __setstate__(self, state) -> None:
        """Restore a pickled disjunction (see :meth:`__getstate__`)."""
        self.members, self._weights, self._bounds, self.w = state
        self._variables = self.w.variables

    def __repr__(self) -> str:
        """Summary form; members are intentionally elided (can be huge)."""
        return f"Dnf({len(self.members)} members over {len(self._variables)} vars)"

    @staticmethod
    def for_tuple(urelation, row: Sequence, w: VariableTable) -> "Dnf":
        """The disjunction F for data tuple ``row`` of a U-relation."""
        return Dnf(urelation.conditions_of(row), w)
