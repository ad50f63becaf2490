"""Conditions: partial functions from random variables to domain values.

In a U-relational database (Section 3) every tuple carries a ``D`` value —
a partial function ``f : Var → Dom`` represented "as finite sets of pairs
of a random variable and a domain value".  A partial function stands for
the set of possible worlds ``ω(f)``: all total assignments consistent
with it.

Two partial functions are *consistent* if they agree on the variables on
which both are defined; a tuple is in world ``f*`` iff some ``⟨f, t⟩`` in
the U-relation has ``f`` consistent with ``f*``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import Optional, Union

__all__ = ["Condition", "ConditionPool", "TOP", "Var", "DomValue"]

Var = Hashable
DomValue = Hashable


class Condition:
    """An immutable partial function ``Var → Dom``.

    Hashable and comparable by extension (the set of pairs), so conditions
    can live in sets — U-relations are sets of ``(condition, tuple)`` pairs.
    """

    __slots__ = ("_map", "_hash")

    def __init__(
        self,
        assignment: Union[
            "Condition", Mapping[Var, DomValue], Iterable[tuple[Var, DomValue]], None
        ] = None,
    ):
        if assignment is None:
            mapping: dict[Var, DomValue] = {}
        elif isinstance(assignment, Condition):
            # Conditions are immutable, so the mapping (and its already
            # computed hash) can be shared instead of copied and re-hashed.
            self._map = assignment._map
            self._hash = assignment._hash
            return
        elif isinstance(assignment, Mapping):
            mapping = dict(assignment)
        else:
            mapping = {}
            for var, value in assignment:
                if var in mapping and mapping[var] != value:
                    raise ValueError(
                        f"condition assigns variable {var!r} two values "
                        f"({mapping[var]!r} and {value!r})"
                    )
                mapping[var] = value
        self._map = mapping
        self._hash = hash(frozenset(mapping.items()))

    @classmethod
    def _from_map(cls, mapping: dict[Var, DomValue]) -> "Condition":
        """Internal: wrap an already-validated dict without copying it.

        Callers must hand over ownership — the dict must never be mutated
        afterwards.
        """
        self = object.__new__(cls)
        self._map = mapping
        self._hash = hash(frozenset(mapping.items()))
        return self

    def __getstate__(self):
        # The mapping alone: the hash is recomputed where it is loaded.
        return self._map

    def __setstate__(self, state) -> None:
        self._map = state
        self._hash = hash(frozenset(state.items()))

    # ------------------------------------------------------------- protocol
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Condition):
            return NotImplemented
        return self._map == other._map

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __contains__(self, var: Var) -> bool:
        return var in self._map

    def __getitem__(self, var: Var) -> DomValue:
        return self._map[var]

    def get(self, var: Var, default: Optional[DomValue] = None) -> Optional[DomValue]:
        return self._map.get(var, default)

    def items(self) -> Iterable[tuple[Var, DomValue]]:
        return self._map.items()

    @property
    def variables(self) -> frozenset[Var]:
        return frozenset(self._map)

    @property
    def is_empty(self) -> bool:
        """Empty conditions denote certain tuples (complete relations)."""
        return not self._map

    # ------------------------------------------------------------ operations
    def consistent_with(self, other: "Condition") -> bool:
        """True iff the two partial functions agree where both are defined."""
        small, large = (self._map, other._map) if len(self._map) <= len(other._map) else (
            other._map,
            self._map,
        )
        for var, value in small.items():
            if var in large and large[var] != value:
                return False
        return True

    def union(self, other: "Condition") -> Optional["Condition"]:
        """Merge two conditions; ``None`` if they are inconsistent.

        The union represents the intersection of the world sets; it is what
        the product/join translation of Section 3 computes for ``D`` values.

        TOP operands return the other condition unchanged (no allocation,
        no re-hash), and consistency is checked in the same single pass
        that discovers the shared variables, so disjoint-variable unions
        pay exactly one scan of the smaller condition.
        """
        smap, omap = self._map, other._map
        if not smap:
            return other
        if not omap:
            return self
        small = smap if len(smap) <= len(omap) else omap
        large = omap if small is smap else smap
        for var, value in small.items():
            if var in large and large[var] != value:
                return None
        merged = dict(smap)
        merged.update(omap)
        return Condition._from_map(merged)

    def restricted_to(self, variables: Iterable[Var]) -> "Condition":
        keep = set(variables)
        return Condition({v: x for v, x in self._map.items() if v in keep})

    def assign(self, var: Var, value: DomValue) -> Optional["Condition"]:
        """Extend by one pair; ``None`` if it contradicts an existing pair."""
        if var in self._map:
            return self if self._map[var] == value else None
        merged = dict(self._map)
        merged[var] = value
        return Condition(merged)

    def evaluate(self, world: Mapping[Var, DomValue]) -> bool:
        """Is this condition satisfied by total assignment ``world``?"""
        for var, value in self._map.items():
            if world.get(var) != value:
                return False
        return True

    def __repr__(self) -> str:
        if not self._map:
            return "⊤"
        inner = ", ".join(
            f"{var!r}↦{value!r}" for var, value in sorted(self._map.items(), key=repr)
        )
        return "{" + inner + "}"


TOP = Condition()
"""The empty condition: true in every world."""


class ConditionPool:
    """Per-database intern pool for conditions and their pairwise unions.

    Joins and products merge the same pair of ``D`` values over and over
    (every candidate tuple pair re-derives the same condition union, each
    time re-hashing a frozenset).  The pool memoizes:

    * :meth:`intern` — one canonical :class:`Condition` object per
      extension, so equal conditions share identity (and downstream set
      operations hash precomputed values only);
    * :meth:`union` — the merge result (or ``None`` for inconsistent
      pairs) per ordered pair of interned conditions.

    Condition algebra never looks at the W table, so pooled results stay
    valid for the lifetime of the database; both caches are bounded and
    simply reset when full (they are caches, not state).
    """

    __slots__ = ("_interned", "_unions", "_max_entries")

    def __init__(self, max_entries: int = 1 << 16):
        self._interned: dict[Condition, Condition] = {TOP: TOP}
        self._unions: dict[tuple[Condition, Condition], Optional[Condition]] = {}
        self._max_entries = max_entries

    def __len__(self) -> int:
        return len(self._interned)

    def snapshot(self) -> "ConditionPool":
        """A private pool pre-warmed with this pool's entries.

        ``UDatabase.copy`` hands each copy its own pool so two "private"
        sessions never mutate each other's interning state; the snapshot
        keeps the copy warm (conditions are immutable, so *entries* are
        safely shared — only the dicts must be private).
        """
        clone = ConditionPool(self._max_entries)
        clone._interned = dict(self._interned)
        clone._unions = dict(self._unions)
        return clone

    def intern(self, condition: Condition) -> Condition:
        """The canonical object for ``condition`` (first one seen wins)."""
        canonical = self._interned.get(condition)
        if canonical is None:
            if len(self._interned) >= self._max_entries:
                self._interned.clear()
                self._interned[TOP] = TOP
            self._interned[condition] = condition
            canonical = condition
        return canonical

    def union(self, left: Condition, right: Condition) -> Optional[Condition]:
        """Memoized ``left.union(right)`` over interned results."""
        if not left._map:
            return self.intern(right)
        if not right._map:
            return self.intern(left)
        key = (left, right)
        try:
            return self._unions[key]
        except KeyError:
            pass
        merged = left.union(right)
        if merged is not None:
            merged = self.intern(merged)
        if len(self._unions) >= self._max_entries:
            self._unions.clear()
        self._unions[key] = merged
        return merged
