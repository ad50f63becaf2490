"""Compact shard payloads and ``auto``'s one fan-out per batch.

A pickled :class:`Dnf` carries only its own variables' slice of the W
table, so shard tasks stay small however large the session grows, and
the round trip changes no answer.  ``AutoStrategy.compute_batch`` cuts
the whole batch once: the shards route and solve the exact and
point-bound DNFs, and only sampler-routed DNFs come back to the
Karp–Luby batch, which draws the call's only entropy.  ``explain``
predicts that fan-out from the same plan, so its annotation and the
runtime agree.
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

import repro
from repro.confidence.batch import batch_approximate_confidence
from repro.confidence.dissociation import dissociation_interval
from repro.confidence.dnf import Dnf
from repro.confidence.exact import probability_by_decomposition
from repro.engine.plan import BELOW_THRESHOLD
from repro.engine.strategies import AutoStrategy, KarpLuby
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor

EPS, DELTA = 0.3, 0.1


def _bool_var(w: VariableTable, name, rng: random.Random) -> None:
    p = Fraction(rng.randint(1, 9), 10)
    w.add(name, {1: p, 0: 1 - p})


def read_once_dnfs(w: VariableTable, n: int, rng: random.Random) -> list[Dnf]:
    """Clauses on disjoint variables: ``auto`` solves them exactly."""
    dnfs = []
    for t in range(n):
        names = [("e", t, j) for j in range(4)]
        for name in names:
            _bool_var(w, name, rng)
        dnfs.append(Dnf([Condition({name: 1}) for name in names], w))
    return dnfs


def alternative_dnfs(w: VariableTable, n: int) -> list[Dnf]:
    """18 mutually exclusive alternatives of one key: too big for the exact
    route, but the dissociation interval is a point."""
    dnfs = []
    for t in range(n):
        key = ("k", t)
        w.add(key, {j: Fraction(1, 20) for j in range(20)})
        dnfs.append(Dnf([Condition({key: j}) for j in range(18)], w))
    return dnfs


def hard_dnfs(w: VariableTable, n: int, rng: random.Random) -> list[Dnf]:
    """24 three-literal clauses sharing ten variables: ``auto`` samples."""
    shared = [("s", j) for j in range(10)]
    for name in shared:
        if name not in w:
            _bool_var(w, name, rng)
    dnfs = []
    for t in range(n):
        private = [("x", t, j) for j in range(5)]
        for name in private:
            _bool_var(w, name, rng)
        clauses: set[frozenset] = set()
        while len(clauses) < 24:
            a, b = rng.sample(shared, 2)
            clauses.add(frozenset([(a, 1), (b, 1), (private[len(clauses) % 5], 1)]))
        dnfs.append(Dnf([Condition(dict(c)) for c in sorted(clauses, key=repr)], w))
    return dnfs


def big_table(n_vars: int, rng: random.Random) -> VariableTable:
    w = VariableTable()
    for i in range(n_vars):
        _bool_var(w, ("pad", i), rng)
    return w


# ---------------------------------------------------------------- round trip
class TestPickledDnf:
    def test_round_trip_keeps_only_own_variables(self):
        rng = random.Random(1)
        w = big_table(2000, rng)
        dnf = hard_dnfs(w, 1, rng)[0]
        back = pickle.loads(pickle.dumps(dnf))
        assert back.w.variables == dnf.variables
        assert len(back.w) == len(dnf.variables) < len(w)
        assert back.members == dnf.members
        assert back.weights == dnf.weights
        assert back.variables == dnf.variables
        for var in dnf.variables:
            assert back.w.distribution(var) == w.distribution(var)
            assert back.w.domain(var) == w.domain(var)  # sampler code order

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_answers_survive_the_round_trip(self, backend):
        from repro.util.backends import available_backends

        if backend not in available_backends():
            pytest.skip(f"{backend} backend unavailable")
        rng = random.Random(2)
        w = big_table(500, rng)
        dnf = hard_dnfs(w, 1, rng)[0]
        back = pickle.loads(pickle.dumps(dnf))
        assert probability_by_decomposition(back) == probability_by_decomposition(dnf)
        assert dissociation_interval(back, 64) == dissociation_interval(dnf, 64)
        before = batch_approximate_confidence(dnf, EPS, DELTA, rng=11, backend=backend)
        after = batch_approximate_confidence(back, EPS, DELTA, rng=11, backend=backend)
        assert before == after

    def test_bounds_memo_travels(self):
        w = VariableTable()
        dnf = alternative_dnfs(w, 1)[0]
        interval = dissociation_interval(dnf, 64)
        back = pickle.loads(pickle.dumps(dnf))
        assert back._bounds == {64: interval}

    def test_pickled_size_does_not_grow_with_the_session_table(self):
        rng = random.Random(4)
        w = big_table(10_000, rng)
        dnf = hard_dnfs(w, 1, rng)[0]
        assert dnf.size == 24
        size = len(pickle.dumps(dnf, protocol=pickle.HIGHEST_PROTOCOL))
        # 24 clauses over 15 variables; the 10k-variable table alone is
        # hundreds of kilobytes.
        assert size < 3_000
        assert size * 100 < len(pickle.dumps(w, protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------- one fan-out
def mixed_batch(seed: int = 5) -> list[Dnf]:
    """8 exact, 8 point-bound and 6 sampled DNFs, interleaved, over one W."""
    rng = random.Random(seed)
    w = VariableTable()
    groups = [read_once_dnfs(w, 8, rng), alternative_dnfs(w, 8), hard_dnfs(w, 6, rng)]
    batch = []
    for i in range(8):
        batch.extend(group[i] for group in groups if i < len(group))
    return batch


class TestAutoBatch:
    def test_batch_mixes_all_three_routes(self):
        auto = AutoStrategy(EPS, DELTA)
        methods = [auto.choose(dnf) for dnf in mixed_batch()]
        assert methods.count("exact-decomposition") == 8
        assert methods.count("dissociation-bounds") == 8
        assert methods.count("karp-luby") == 6

    def test_reports_bit_identical_across_worker_counts(self):
        dnfs = mixed_batch()
        auto = AutoStrategy(EPS, DELTA)
        runs = []
        for workers in (1, 2, 4):
            rng = random.Random(9)
            with ShardExecutor(workers) as executor:
                reports = auto.compute_batch(dnfs, rng, executor=executor)
            runs.append((reports, rng.getstate()))
        assert runs[0] == runs[1] == runs[2]
        methods = [report.method for report in runs[0][0]]
        assert methods == [auto.choose(dnf) for dnf in dnfs]

    def test_only_the_sampler_draws_session_entropy(self):
        dnfs = mixed_batch()
        auto = AutoStrategy(EPS, DELTA)
        sampled = [dnf for dnf in dnfs if auto.choose(dnf) == "karp-luby"]
        for workers in (1, 2, 4):
            with ShardExecutor(workers) as executor:
                rng = random.Random(9)
                reports = auto.compute_batch(dnfs, rng, executor=executor)
                alone_rng = random.Random(9)
                alone = KarpLuby(EPS, DELTA).compute_batch(
                    sampled, alone_rng, executor=executor
                )
            assert rng.getstate() == alone_rng.getstate()
            got = [r for r in reports if r.method == "karp-luby"]
            assert [r.value for r in got] == [r.value for r in alone]
            assert [r.samples for r in got] == [r.samples for r in alone]

    def test_whole_batch_fans_out_once(self, monkeypatch):
        calls = []
        original = ShardExecutor.map

        def spy(self, fn, tasks, validate=True):
            tasks = list(tasks)
            calls.append((fn.__name__, len(tasks)))
            return original(self, fn, tasks, validate)

        monkeypatch.setattr(ShardExecutor, "map", spy)
        dnfs = [dnf for dnf in mixed_batch() if dnf.size != 24]  # no sampler
        AutoStrategy(EPS, DELTA).compute_batch(dnfs, random.Random(0))
        assert calls == [("_route_shard_task", 2)]


    def test_each_dnf_is_pickled_once(self, monkeypatch):
        """The pickle dry run that validates a map's tasks is what ships."""
        pickled = []
        original = Dnf.__getstate__

        def counting(self):
            pickled.append(id(self))
            return original(self)

        monkeypatch.setattr(Dnf, "__getstate__", counting)
        dnfs = [dnf for dnf in mixed_batch() if dnf.size != 24]
        with ShardExecutor(2) as executor:
            AutoStrategy(EPS, DELTA).compute_batch(dnfs, random.Random(0), executor=executor)
        assert sorted(pickled) == sorted(id(dnf) for dnf in dnfs)


# ---------------------------------------------------------------- explain
def split_database(n_exact: int, n_bound: int) -> UDatabase:
    """R(T): n_exact read-once tuples, then n_bound alternative-key tuples."""
    rng = random.Random(6)
    w = VariableTable()
    dnfs = read_once_dnfs(w, n_exact, rng) + alternative_dnfs(w, n_bound)
    rows = frozenset(
        (member, (t,)) for t, dnf in enumerate(dnfs) for member in dnf.members
    )
    return UDatabase({"R": URelation(("T",), rows)}, w, set())


@pytest.mark.parametrize("n_exact, n_bound", [(8, 8), (4, 4)])
def test_explain_annotation_matches_actual_fan_out(monkeypatch, n_exact, n_bound):
    """A 16-tuple batch split 8 exact / 8 point-bound is annotated sharded
    and really fans out; an 8-tuple batch is below threshold and does not."""
    with repro.connect(split_database(n_exact, n_bound), workers=2) as db:
        plan = db.explain("conf[P](R)")
        conf_line = plan.text.splitlines()[0]
        assert "sharded[2]" in conf_line
        predicted = BELOW_THRESHOLD not in conf_line

        fanned = []
        original = ShardExecutor.map

        def spy(self, fn, tasks, validate=True):
            tasks = list(tasks)
            fanned.append(len(tasks) > 1)
            return original(self, fn, tasks, validate)

        monkeypatch.setattr(ShardExecutor, "map", spy)
        result = db.confidence_all("R")
        assert len(result) == n_exact + n_bound
        assert any(fanned) == predicted
    assert predicted == (n_exact + n_bound >= 16)
